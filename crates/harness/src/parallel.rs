//! A parallel runner: real OS threads, one per model thread, each owning
//! its own [`pushpull_core::TxnHandle`].
//!
//! This is where the GlobalState/TxnHandle split pays off. Workers are
//! obtained from [`ParallelSystem::workers`], which hands each OS thread
//! exclusive `&mut` access to its own per-thread handle and driver state.
//! **No lock wraps the system as a whole**: APP/UNAPP ticks run entirely
//! on thread-local state, and only the shared-log rules
//! (PUSH/UNPUSH/PULL/UNPULL/CMT) and the drivers' own small shared
//! structures (a lock table, a conflict tracker, a commit token) take
//! short critical sections inside the machine. The interleaving is
//! decided by the *OS scheduler* rather than a seeded policy, giving the
//! test suites a source of genuinely nondeterministic interleavings
//! (every one of which must still pass the oracle, which is the point).
//!
//! Two robustness guarantees:
//!
//! * a worker panic is **caught and propagated** as
//!   [`ParallelError::Panic`] naming the thread and the tick it died on
//!   (instead of poisoning a lock and hanging the others — a stop flag
//!   makes the surviving workers exit at their next tick);
//! * a run that exhausts its tick budget comes back with a
//!   [`WatchdogReport`]: a per-thread dump of how far each worker got
//!   and what its last tick outcome was, which is what you want in hand
//!   when diagnosing a livelock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use pushpull_core::error::MachineError;
use pushpull_tm::driver::{ParallelSystem, Tick, Worker};

/// Why a parallel run failed.
#[derive(Debug)]
pub enum ParallelError {
    /// A worker returned an unexpected machine error.
    Machine(MachineError),
    /// A worker panicked mid-run.
    Panic {
        /// Index of the model thread whose worker panicked.
        thread: usize,
        /// Ticks that worker had completed when it panicked.
        ticks: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::Machine(e) => write!(f, "worker machine error: {e}"),
            ParallelError::Panic {
                thread,
                ticks,
                message,
            } => write!(
                f,
                "worker for thread {thread} panicked after {ticks} ticks: {message}"
            ),
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelError::Machine(e) => Some(e),
            ParallelError::Panic { .. } => None,
        }
    }
}

impl From<MachineError> for ParallelError {
    fn from(e: MachineError) -> Self {
        ParallelError::Machine(e)
    }
}

/// Per-thread progress snapshot for the watchdog dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadDump {
    /// Model thread index.
    pub thread: usize,
    /// Ticks this worker completed.
    pub ticks: usize,
    /// Outcome of the worker's last tick, if it ticked at all.
    pub last: Option<Tick>,
    /// Whether the worker finished all its transactions.
    pub done: bool,
}

/// What every worker was doing when a run missed its tick-budget
/// deadline — the diagnostic to read when a configuration livelocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// One dump per model thread.
    pub threads: Vec<ThreadDump>,
    /// Shared-log `(acquires, contended)` lock counters at the time the
    /// watchdog tripped — a livelock whose `contended` tally keeps
    /// climbing is fighting over the log; one whose tallies are flat is
    /// stuck outside it (driver metadata, dependency waits).
    pub lock_stats: (u64, u64),
    /// Per-shard `(acquires, contended)`, ascending by shard index —
    /// pinpoints *which* shard a log-bound livelock is fighting over.
    pub lock_stats_per_shard: Vec<(u64, u64)>,
    /// Nested-scope counters — a stall with `scopes_opened` climbing but
    /// neither `scopes_merged` nor `scopes_aborted` moving means threads
    /// keep re-entering a scope they can never exit.
    pub nesting_stats: pushpull_core::NestingStats,
}

impl std::fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "watchdog: tick budget exhausted")?;
        let (acquires, contended) = self.lock_stats;
        writeln!(
            f,
            "  shard locks: {acquires} acquires, {contended} contended"
        )?;
        // Ascending shard order: the dump is deterministic, diffable
        // across runs of the same configuration.
        for (i, (acquires, contended)) in self.lock_stats_per_shard.iter().enumerate() {
            writeln!(
                f,
                "    shard {i:<3} acquires={acquires:<9} contended={contended}"
            )?;
        }
        let n = &self.nesting_stats;
        if n.scopes_opened > 0 {
            writeln!(
                f,
                "  nesting: {} opened, {} merged, {} aborted, {} open commits, \
                 {} compensations, {} undo inverses",
                n.scopes_opened,
                n.scopes_merged,
                n.scopes_aborted,
                n.open_commits,
                n.compensations_replayed,
                n.undo_inverses
            )?;
        }
        for t in &self.threads {
            writeln!(
                f,
                "  thread {:<3} ticks={:<9} last={:<10} done={}",
                t.thread,
                t.ticks,
                t.last.map_or("never-ran".to_string(), |l| format!("{l:?}")),
                t.done,
            )?;
        }
        Ok(())
    }
}

/// Outcome of a parallel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelOutcome {
    /// Total ticks across all workers.
    pub ticks: usize,
    /// Whether every model thread finished within its tick budget.
    pub completed: bool,
    /// Per-thread diagnostic dump, present when the run did *not*
    /// complete (the watchdog tripped on the tick-budget deadline).
    pub watchdog: Option<WatchdogReport>,
}

struct ThreadSummary {
    ticks: usize,
    last: Option<Tick>,
    done: bool,
}

/// Ticks model thread `thread`'s worker until it is done, `max_ticks`
/// run out or another worker raises `stop`. A machine error or a panic
/// (caught here, so it can neither poison the run nor unwind into the
/// caller) raises `stop` and comes back as the worker's error.
fn drive(
    thread: usize,
    mut worker: Worker<'_>,
    max_ticks: usize,
    stop: &AtomicBool,
) -> Result<ThreadSummary, ParallelError> {
    let mut summary = ThreadSummary {
        ticks: 0,
        last: None,
        done: false,
    };
    for _ in 0..max_ticks {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let tick = match catch_unwind(AssertUnwindSafe(&mut worker)) {
            Ok(Ok(tick)) => tick,
            Ok(Err(e)) => {
                stop.store(true, Ordering::Relaxed);
                return Err(ParallelError::Machine(e));
            }
            Err(payload) => {
                stop.store(true, Ordering::Relaxed);
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Err(ParallelError::Panic {
                    thread,
                    ticks: summary.ticks,
                    message,
                });
            }
        };
        summary.ticks += 1;
        summary.last = Some(tick);
        match tick {
            Tick::Done => {
                summary.done = true;
                return Ok(summary);
            }
            Tick::Blocked => std::thread::yield_now(),
            _ => {}
        }
    }
    Ok(summary)
}

/// Runs `sys` with one OS thread per model thread, each ticking its own
/// worker closure until done (or until `max_ticks_per_thread`). Model
/// thread 0 runs on the calling thread; the others are spawned.
///
/// The third parameter takes no value: its type is uninhabited, so
/// `None` is the only argument a caller can pass. It stays only because
/// the benchmark package (`ledger/`) passes `None`; dropping it is a
/// change to that package too. The machine needs nothing beside the
/// system: it checks every criterion when its rule fires. To run
/// resharded, call
/// [`TmSystem::set_log_shards`](pushpull_tm::TmSystem::set_log_shards)
/// first.
///
/// # Errors
///
/// Propagates the first unexpected [`MachineError`] raised by any worker
/// as [`ParallelError::Machine`], and the first worker panic as
/// [`ParallelError::Panic`] naming the thread and its tick count. Either
/// way a stop flag makes the remaining workers exit at their next tick,
/// so a single bad worker can neither hang the join nor poison the rest
/// of the run.
pub fn run_parallel<T>(
    mut sys: T,
    max_ticks_per_thread: usize,
    _none: Option<&std::convert::Infallible>,
) -> Result<(T, ParallelOutcome), ParallelError>
where
    T: ParallelSystem + Send,
{
    let stop = AtomicBool::new(false);

    // Model thread 0 runs on the calling thread, which would otherwise
    // only wait in the join: one spawn fewer per run.
    let results: Vec<Result<ThreadSummary, ParallelError>> = {
        let mut workers = sys.workers().into_iter().enumerate();
        let first = workers.next();
        let stop = &stop;
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .map(|(thread, worker)| {
                    scope.spawn(move || drive(thread, worker, max_ticks_per_thread, stop))
                })
                .collect();
            let mut results = Vec::with_capacity(handles.len() + 1);
            if let Some((thread, worker)) = first {
                results.push(drive(thread, worker, max_ticks_per_thread, stop));
            }
            results.extend(handles.into_iter().map(|h| match h.join() {
                Ok(r) => r,
                // Unreachable: the worker body catches its own
                // panics. Kept so a harness bug cannot hang the run.
                Err(_) => Err(ParallelError::Panic {
                    thread: usize::MAX,
                    ticks: 0,
                    message: "worker thread died outside catch_unwind".into(),
                }),
            }));
            results
        })
    };

    let mut summaries = Vec::with_capacity(results.len());
    let mut first_error: Option<ParallelError> = None;
    for r in results {
        match r {
            Ok(s) => summaries.push(s),
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let ticks = summaries.iter().map(|s| s.ticks).sum();
    let all_done = summaries.iter().all(|s| s.done);
    let completed = all_done && sys.is_done();
    let m = sys.machine();
    let watchdog = (!completed).then(|| WatchdogReport {
        threads: summaries
            .iter()
            .enumerate()
            .map(|(thread, s)| ThreadDump {
                thread,
                ticks: s.ticks,
                last: s.last,
                done: s.done,
            })
            .collect(),
        lock_stats: m.lock_stats(),
        lock_stats_per_shard: m.lock_stats_per_shard(),
        nesting_stats: m.nesting_stats(),
    });
    Ok((
        sys,
        ParallelOutcome {
            ticks,
            completed,
            watchdog,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::lang::Code;
    use pushpull_core::machine::Machine;
    use pushpull_core::serializability::check_machine;
    use pushpull_core::toy::ToyCounter;
    use pushpull_spec::kvmap::{KvMap, MapMethod};
    use pushpull_tm::boosting::BoostingSystem;

    #[test]
    fn parallel_boosting_run_is_serializable() {
        for round in 0..5 {
            let programs: Vec<_> = (0..4u64)
                .map(|t| {
                    vec![
                        Code::seq_all(vec![
                            Code::method(MapMethod::Put(t, t as i64)),
                            Code::method(MapMethod::Get((t + 1) % 4)),
                        ]),
                        Code::method(MapMethod::Put(t + 10, 1)),
                    ]
                })
                .collect();
            let sys = BoostingSystem::new(KvMap::new(), programs);
            let (sys, outcome) = run_parallel(sys, 1_000_000, None).unwrap();
            assert!(outcome.completed, "round {round} incomplete");
            assert!(outcome.watchdog.is_none());
            assert_eq!(sys.stats().commits, 8, "round {round}");
            let report = check_machine(sys.machine());
            assert!(report.is_serializable(), "round {round}: {report}");
        }
    }

    #[test]
    fn parallel_optimistic_run_is_serializable() {
        use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};
        use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};
        for round in 0..5 {
            let programs: Vec<_> = (0..4u32)
                .map(|t| {
                    vec![Code::seq_all(vec![
                        Code::method(MemMethod::Read(Loc(t % 2))),
                        Code::method(MemMethod::Write(Loc(t % 2), i64::from(t))),
                    ])]
                })
                .collect();
            let sys = OptimisticSystem::new(RwMem::new(), programs, ReadPolicy::Snapshot);
            let (sys, outcome) = run_parallel(sys, 1_000_000, None).unwrap();
            assert!(outcome.completed, "round {round} incomplete");
            let report = check_machine(sys.machine());
            assert!(report.is_serializable(), "round {round}: {report}");
        }
    }

    #[test]
    fn ticks_are_the_sum_of_the_workers_ticks() {
        use crate::scheduler::{run, RoundRobin};
        use pushpull_tm::driver::TmSystem;
        use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};
        // Private keys: no conflict, so each thread's tick count is the
        // same under any interleaving.
        let system = || {
            let programs: Vec<_> = (0..2u64)
                .map(|t| {
                    (0..4u64)
                        .map(|i| {
                            let k = 100 * t + i;
                            Code::seq_all(vec![
                                Code::method(MapMethod::Put(k, 1)),
                                Code::method(MapMethod::Get(k)),
                            ])
                        })
                        .collect()
                })
                .collect();
            OptimisticSystem::new(KvMap::new(), programs, ReadPolicy::Snapshot)
        };
        let mut serial = system();
        let rr = run(&mut serial, &mut RoundRobin, 10_000).unwrap();
        assert!(rr.completed);
        let (sys, outcome) = run_parallel(system(), 10_000, None).unwrap();
        assert!(outcome.completed);
        assert_eq!(sys.stats().commits, serial.stats().commits);
        // Each worker also takes the tick that reports `Tick::Done`,
        // which the round-robin loop stops before.
        assert_eq!(outcome.ticks, rr.ticks + sys.thread_count());
    }

    /// A two-thread system whose worker `.1` panics on its third tick,
    /// over an empty machine.
    #[derive(Debug)]
    struct PanickySystem(Machine<ToyCounter>, usize);

    impl pushpull_tm::driver::TmSystem for PanickySystem {
        type MachineSpec = ToyCounter;

        fn tick(&mut self, _tid: pushpull_core::op::ThreadId) -> Result<Tick, MachineError> {
            Ok(Tick::Progress)
        }
        fn thread_count(&self) -> usize {
            2
        }
        fn is_done(&self) -> bool {
            false
        }
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn stats(&self) -> pushpull_tm::driver::SystemStats {
            Default::default()
        }
        fn machine(&self) -> &Machine<ToyCounter> {
            &self.0
        }
        fn machine_mut(&mut self) -> &mut Machine<ToyCounter> {
            &mut self.0
        }
    }

    impl ParallelSystem for PanickySystem {
        fn workers(&mut self) -> Vec<pushpull_tm::driver::Worker<'_>> {
            (0..2)
                .map(|thread| {
                    let mut calls = 0u32;
                    let panics = thread == self.1;
                    let worker: pushpull_tm::driver::Worker<'_> = Box::new(move || {
                        calls += 1;
                        if panics && calls >= 3 {
                            panic!("injected worker panic");
                        }
                        Ok(Tick::Progress)
                    });
                    worker
                })
                .collect()
        }
    }

    /// Runs a `PanickySystem` whose worker `panicking` panics: the run
    /// comes back as `Panic` naming that thread and its tick count.
    fn assert_panic_surfaces(panicking: usize) {
        let sys = PanickySystem(Machine::new(ToyCounter::with_bound(1)), panicking);
        let err = run_parallel(sys, 100_000, None).unwrap_err();
        match err {
            ParallelError::Panic {
                thread,
                ticks,
                ref message,
            } => {
                assert_eq!(thread, panicking);
                assert_eq!(ticks, 2, "panicked on the third call");
                assert!(message.contains("injected worker panic"));
            }
            ref other => panic!("expected Panic, got {other:?}"),
        }
        let rendered = err.to_string();
        assert!(
            rendered.contains(&format!("thread {panicking}")),
            "{rendered}"
        );
    }

    #[test]
    fn worker_panic_surfaces_thread_and_tick() {
        assert_panic_surfaces(1);
    }

    /// Worker 0 runs on the calling thread: its panic is caught like any
    /// other worker's, stops the spawned one, and does not unwind out of
    /// `run_parallel`.
    #[test]
    fn a_panic_in_worker_zero_on_the_calling_thread_is_caught() {
        assert_panic_surfaces(0);
    }

    #[test]
    fn tick_budget_exhaustion_produces_watchdog_dump() {
        // A genuinely contended workload with a 1-tick budget cannot
        // finish; the outcome must carry a per-thread dump.
        let programs: Vec<_> = (0..2u64)
            .map(|_| vec![Code::method(MapMethod::Put(0, 1))])
            .collect();
        let sys = BoostingSystem::new(KvMap::new(), programs);
        let (_, outcome) = run_parallel(sys, 1, None).unwrap();
        assert!(!outcome.completed);
        let dump = outcome.watchdog.expect("watchdog must trip");
        assert_eq!(dump.threads.len(), 2);
        let dumped: usize = dump.threads.iter().map(|t| t.ticks).sum();
        assert_eq!(outcome.ticks, dumped);
        let rendered = dump.to_string();
        assert!(rendered.contains("thread 0"), "{rendered}");
        assert!(rendered.contains("tick budget exhausted"), "{rendered}");
    }
}
