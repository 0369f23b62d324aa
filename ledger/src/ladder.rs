//! The layer ladder: one generated epoch re-executed single-threaded at
//! successive cuts through the product, each public call wrapped in a span.
//!
//! Rungs, from the bottom:
//!
//! * `spec` — the epoch's committed operations replayed through
//!   `SeqSpec::allowed`, and its methods through `SeqSpec::method_mover`;
//! * `core.handle` — the benchmark drives raw `TxnHandle`s in the server's
//!   admit → apply → commit → refresh order, committing one transaction at
//!   a time (`push_all_and_commit`);
//! * `core.group` — the same drive with the ready set committed through
//!   `commit_group`;
//! * `server` — `TxnServer` under a deterministic round-robin of
//!   `TmSystem::tick`;
//! * `tm.<driver>` — each §6 driver under `harness::run` + `RoundRobin`.
//!
//! A rung's cost above the one below it is a subtraction. Every rung runs
//! on the calling thread, so its counts — commits, aborts, lock
//! acquisitions, audit queries, allocations, ticks — repeat exactly from
//! one execution to the next; [`repeat`] checks that they do.

use std::hint::black_box;
use std::time::Instant;

use pushpull_core::lang::Code;
use pushpull_core::machine::Machine;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{commit_group, GroupTxnResult, TxnHandle};
use pushpull_harness::{run, RoundRobin, Scheduler};
use pushpull_server::{assign_sessions, TxnServer};
use pushpull_spec::kvmap::KvMap;
use pushpull_tm::driver::{fold_machine_counters, SystemStats, TmSystem};
use pushpull_tm::util::pull_committed_lenient;

use crate::alloc::thread_counts;
use crate::gen::KvEpoch;
use crate::kv::{KvShape, WORKERS};
use crate::measure::Counters;
use crate::stats::median;
use crate::tm::Driver;
use crate::trace::Tracer;

/// Shards of the `tm_rw` handle rungs: the §6 drivers keep the default
/// single-shard log.
pub const TM_SHARDS: usize = 1;

/// One execution of a rung.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RungRun {
    /// Time from the first call into the product to the last, construction
    /// excluded (as in the end-to-end epochs).
    pub ns: u64,
    /// Public counters and this thread's allocations over that interval.
    pub counters: Counters,
    /// `pull_committed_lenient` calls (handle rungs).
    pub pulls: u64,
    /// Operations those calls pulled.
    pub pulled_ops: u64,
}

/// A transaction of a handle rung: its id in the trace and its operations.
pub type Txn<'a, M> = (u32, &'a [M]);

/// What a slot of the handle rung is doing.
#[derive(Debug, Clone, Copy)]
struct Busy {
    /// Index into the worker's queue.
    txn: usize,
    /// Operations applied in the current attempt.
    applied: usize,
}

fn criterion<T>(
    r: Result<T, pushpull_core::MachineError>,
    what: &str,
) -> Result<Option<T>, String> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.is_criterion() => Ok(None),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// The `core.handle` rung (`group == false`) and the `core.group` rung
/// (`group == true`): `queues.len()` workers of `slots` raw handles each,
/// ticked round-robin in the order `TxnServer` uses — bind queued
/// transactions to idle handles, apply every busy handle's operations,
/// commit the ready ones in destination-shard order, then refresh the
/// denied ones' committed views — with no session bookkeeping, retry
/// budget or statistics around the calls.
pub fn handle_rung<S: SeqSpec>(
    spec: S,
    shards: usize,
    queues: &[Vec<Txn<'_, S::Method>>],
    slots: usize,
    group: bool,
    tr: &mut Tracer,
) -> Result<RungRun, String> {
    let mut machine = Machine::new(spec);
    for _ in 0..queues.len() * slots {
        machine.add_thread(Vec::new());
    }
    machine.set_log_shards(shards);
    let mut busy: Vec<Option<Busy>> = vec![None; queues.len() * slots];
    let mut next = vec![0usize; queues.len()];
    let mut run = RungRun::default();
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut commits = 0usize;
    let mut aborts = 0u64;
    let mut ticks = 0u64;
    let tick_budget = 64 * (total as u64 + 16);

    let (root_span, commit_span) = if group {
        ("core.group.rung", "core.group.fallback_commit")
    } else {
        ("core.handle.rung", "core.handle.push_commit")
    };

    let allocs_before = thread_counts();
    let began = Instant::now();
    let root = tr.open(root_span, None);
    while commits < total {
        for (w, queue) in queues.iter().enumerate() {
            ticks += 1;
            if ticks > tick_budget {
                return Err("handle rung did not drain within its tick budget".into());
            }
            let handles = &mut machine.handles_mut()[w * slots..(w + 1) * slots];
            let busy = &mut busy[w * slots..(w + 1) * slots];
            // Admit.
            for (k, slot) in busy.iter_mut().enumerate() {
                if slot.is_some() || next[w] == queue.len() {
                    continue;
                }
                let (id, ops) = queue[next[w]];
                let span = tr.open("core.handle.enqueue", Some(id));
                handles[k].enqueue(Code::seq_all(ops.iter().cloned().map(Code::method)));
                tr.close(span);
                *slot = Some(Busy {
                    txn: next[w],
                    applied: 0,
                });
                next[w] += 1;
            }
            // Apply.
            let mut ready: Vec<usize> = Vec::new();
            let mut needs_pull: Vec<usize> = Vec::new();
            for (k, h) in handles.iter_mut().enumerate() {
                let Some(b) = &mut busy[k] else { continue };
                let (id, ops) = queue[b.txn];
                let mut denied = false;
                while b.applied < ops.len() {
                    let span = tr.open("core.handle.app", Some(id));
                    let applied = criterion(h.app_method(&ops[b.applied]), "APP")?;
                    tr.close(span);
                    if applied.is_none() {
                        denied = true;
                        break;
                    }
                    b.applied += 1;
                }
                if denied {
                    abort(h, id, tr)?;
                    aborts += 1;
                    b.applied = 0;
                    needs_pull.push(k);
                } else {
                    ready.push(k);
                }
            }
            // Commit.
            ready.sort_by_key(|&k| match handles[k].group_route() {
                Some(shard) => (0usize, shard, k),
                None => (1usize, 0, k),
            });
            let mut single: Vec<usize> = Vec::new();
            if group && !ready.is_empty() {
                let span = tr.open("core.group.commit_group", None);
                let results = {
                    let mut lent: Vec<Option<&mut TxnHandle<S>>> =
                        handles.iter_mut().map(Some).collect();
                    let mut batch: Vec<&mut TxnHandle<S>> = ready
                        .iter()
                        .map(|&k| lent[k].take().expect("ready slots are distinct"))
                        .collect();
                    commit_group(&mut batch).results
                };
                tr.close(span);
                for (k, (_, result)) in ready.iter().copied().zip(results) {
                    match result {
                        GroupTxnResult::Committed(_) => {
                            busy[k] = None;
                            commits += 1;
                        }
                        GroupTxnResult::Aborted { .. } => {
                            aborts += 1;
                            if let Some(b) = &mut busy[k] {
                                b.applied = 0;
                            }
                            needs_pull.push(k);
                        }
                        GroupTxnResult::Wedged(e) => {
                            return Err(format!("group commit wedged: {e}"));
                        }
                        GroupTxnResult::Ineligible => single.push(k),
                    }
                }
            } else {
                single = ready;
            }
            for k in single {
                let id = queue[busy[k].expect("ready slots are busy").txn].0;
                let span = tr.open(commit_span, Some(id));
                let done = criterion(handles[k].push_all_and_commit(), "PUSH/CMT")?;
                tr.close(span);
                if done.is_some() {
                    busy[k] = None;
                    commits += 1;
                } else {
                    abort(&mut handles[k], id, tr)?;
                    aborts += 1;
                    if let Some(b) = &mut busy[k] {
                        b.applied = 0;
                    }
                    needs_pull.push(k);
                }
            }
            // Refresh.
            for k in needs_pull {
                let id = busy[k].map(|b| queue[b.txn].0);
                let span = tr.open("core.handle.pull", id);
                let pulled = pull_committed_lenient(&mut handles[k])
                    .map_err(|e| format!("lenient pull: {e}"))?;
                tr.close(span);
                run.pulls += 1;
                run.pulled_ops += pulled as u64;
            }
        }
    }
    tr.close(root);
    run.ns = began.elapsed().as_nanos() as u64;
    let allocs = thread_counts().since(allocs_before);

    let mut stats = SystemStats {
        commits: commits as u64,
        aborts,
        ..SystemStats::default()
    };
    fold_machine_counters(&machine, &mut stats);
    run.counters.add(&stats, &machine, ticks, allocs);
    Ok(run)
}

fn abort<S: SeqSpec>(h: &mut TxnHandle<S>, id: u32, tr: &mut Tracer) -> Result<(), String> {
    let span = tr.open("core.handle.abort", Some(id));
    let r = h.abort_and_retry();
    tr.close(span);
    r.map(|_| ()).map_err(|e| format!("abort_and_retry: {e}"))
}

/// The handle-rung queues of a server epoch: the sessions as
/// `assign_sessions` deals them to the workers.
pub fn kv_queues(epoch: &KvEpoch) -> Vec<Vec<Txn<'_, pushpull_spec::kvmap::MapMethod>>> {
    assign_sessions(epoch.scripts.len(), WORKERS, epoch.server_seed)
        .into_iter()
        .map(|q| {
            q.into_iter()
                .map(|s| (s as u32, epoch.scripts[s].ops.as_slice()))
                .collect()
        })
        .collect()
}

/// The handle-rung queues of a `tm_rw` program set: one worker per model
/// thread, one handle each.
pub fn tm_queues<M>(threads: &[Vec<Vec<M>>]) -> Vec<Vec<Txn<'_, M>>> {
    let per_thread = threads.first().map_or(0, Vec::len);
    threads
        .iter()
        .enumerate()
        .map(|(t, txns)| {
            txns.iter()
                .enumerate()
                .map(|(i, ops)| ((t * per_thread + i) as u32, ops.as_slice()))
                .collect()
        })
        .collect()
}

/// The `server` rung: a fresh `TxnServer` over `epoch`, its workers ticked
/// round-robin on this thread. Returns the drained server too, whose
/// committed operations feed the `spec` rung.
pub fn server_rung(
    shape: &KvShape,
    epoch: &KvEpoch,
    tr: &mut Tracer,
) -> Result<(RungRun, TxnServer<KvMap>), String> {
    let mut sys = shape.build(epoch);
    let budget = (shape.tick_budget * WORKERS) as u64;
    let mut ticks = 0u64;
    let allocs_before = thread_counts();
    let began = Instant::now();
    let root = tr.open("server.rung", None);
    while !sys.is_done() {
        if ticks == budget {
            return Err("server rung did not drain within its tick budget".into());
        }
        let span = tr.open("server.tick", None);
        let r = sys.tick(ThreadId(ticks as usize % WORKERS));
        tr.close(span);
        r.map_err(|e| format!("server tick: {e}"))?;
        ticks += 1;
    }
    tr.close(root);
    let ns = began.elapsed().as_nanos() as u64;
    let allocs = thread_counts().since(allocs_before);
    let mut counters = Counters::default();
    counters.add(&sys.stats(), sys.machine(), ticks, allocs);
    if counters.commits != epoch.scripts.len() as u64 {
        return Err(format!(
            "server rung committed {} of {} sessions",
            counters.commits,
            epoch.scripts.len()
        ));
    }
    Ok((
        RungRun {
            ns,
            counters,
            ..RungRun::default()
        },
        sys,
    ))
}

/// The `tm.<driver>` rung: `sys` under `harness::run` with `RoundRobin`
/// when the tracer is off, and under the same loop spelled out — one span
/// per tick — when it is on.
pub fn tm_rung<T: Driver>(
    sys: &mut T,
    tick_span: &'static str,
    tr: &mut Tracer,
) -> Result<RungRun, String> {
    let budget = crate::tm::TICK_BUDGET;
    let allocs_before = thread_counts();
    let began = Instant::now();
    let ticks = if tr.is_on() {
        let root = tr.open("tm.rung", None);
        let n = sys.thread_count();
        let mut step = 0;
        while !sys.is_done() && step < budget {
            let span = tr.open(tick_span, None);
            let r = sys.tick(RoundRobin.next(n, step));
            tr.close(span);
            r.map_err(|e| format!("{tick_span}: {e}"))?;
            step += 1;
        }
        tr.close(root);
        step
    } else {
        run(sys, &mut RoundRobin, budget)
            .map_err(|e| format!("{tick_span}: {e}"))?
            .ticks
    };
    let ns = began.elapsed().as_nanos() as u64;
    let allocs = thread_counts().since(allocs_before);
    if !sys.is_done() {
        return Err(format!("{tick_span}: did not drain within its tick budget"));
    }
    let mut counters = Counters::default();
    counters.add(
        &sys.driver_stats(),
        sys.driver_machine(),
        ticks as u64,
        allocs,
    );
    Ok(RungRun {
        ns,
        counters,
        ..RungRun::default()
    })
}

/// Time and counts of a rung over repeated executions.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// Median time of the executions.
    pub ns: f64,
    /// Counts of one execution (every execution's, when `exact`).
    pub run: RungRun,
    /// Executions made.
    pub reps: usize,
    /// Did every execution report the same counts?
    pub exact: bool,
}

/// A rung as [`repeat`] executes it.
pub type RungFn<'a> = &'a mut dyn FnMut(&mut Tracer) -> Result<RungRun, String>;

/// Executes `rungs` with tracing off, in turn, round after round, until
/// `seconds` have passed — at least two rounds, at most `max_rounds` — and
/// compares each rung's counts across its executions. Taking turns keeps
/// the rungs comparable: the sandbox's speed drifts by tens of percent over
/// seconds, far more than one rung differs from the next.
pub fn repeat(
    seconds: f64,
    max_rounds: usize,
    rungs: &mut [RungFn<'_>],
) -> Result<Vec<Rung>, String> {
    let began = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut out: Vec<Rung> = Vec::with_capacity(rungs.len());
    let mut rounds = 0;
    while rounds < 2 || (rounds < max_rounds && began.elapsed().as_secs_f64() < seconds) {
        for (i, rung) in rungs.iter_mut().enumerate() {
            let run = rung(&mut Tracer::off())?;
            times[i].push(run.ns as f64);
            match out.get_mut(i) {
                None => out.push(Rung {
                    run,
                    exact: true,
                    ..Rung::default()
                }),
                Some(first) => {
                    first.exact &= first.run.counters.repeatable() == run.counters.repeatable()
                        && (first.run.pulls, first.run.pulled_ops) == (run.pulls, run.pulled_ops);
                }
            }
        }
        rounds += 1;
    }
    for (rung, times) in out.iter_mut().zip(&times) {
        rung.ns = median(times);
        rung.reps = rounds;
    }
    Ok(out)
}

/// The `spec` rung over a drained machine's committed operations: time per
/// operation of `allowed` on the whole committed log, and per query of
/// `method_mover` over its adjacent method pairs. Medians of `reps`
/// executions.
pub fn spec_rung<S: SeqSpec>(machine: &Machine<S>, reps: usize) -> (f64, f64) {
    let ops = machine.global().committed_ops();
    if ops.len() < 2 {
        return (0.0, 0.0);
    }
    let spec = machine.spec();
    let mut allowed = Vec::with_capacity(reps);
    let mut mover = Vec::with_capacity(reps);
    for _ in 0..reps {
        let began = Instant::now();
        let ok = spec.allowed(black_box(&ops));
        allowed.push(began.elapsed().as_nanos() as f64 / ops.len() as f64);
        assert!(black_box(ok), "a committed log the spec does not allow");
        let began = Instant::now();
        for pair in ops.windows(2) {
            black_box(spec.method_mover(black_box(&pair[0].method), &pair[1].method));
        }
        mover.push(began.elapsed().as_nanos() as f64 / (ops.len() - 1) as f64);
    }
    (median(&allowed), median(&mover))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{FRESH_SHORT, OPEN, REUSE};
    use crate::tm;

    fn handle_counts(shape: &KvShape, seed: u64, group: bool) -> RungRun {
        let epoch = shape.epoch(seed, 0);
        handle_rung(
            KvMap::new(),
            crate::kv::SHARDS,
            &kv_queues(&epoch),
            shape.slots,
            group,
            &mut Tracer::off(),
        )
        .unwrap()
    }

    #[test]
    fn handle_rungs_repeat_their_counts_exactly() {
        for shape in [FRESH_SHORT, REUSE] {
            for group in [false, true] {
                let a = handle_counts(&shape, 5, group);
                let b = handle_counts(&shape, 5, group);
                assert_eq!(a.counters.commits, shape.sessions as u64);
                assert_eq!(
                    a.counters.repeatable(),
                    b.counters.repeatable(),
                    "{} group={group}",
                    shape.name
                );
                assert_eq!((a.pulls, a.pulled_ops), (b.pulls, b.pulled_ops));
            }
        }
        // Shared keys conflict; private keys never do.
        assert!(handle_counts(&REUSE, 5, false).counters.aborts > 0);
        assert_eq!(handle_counts(&FRESH_SHORT, 5, true).counters.aborts, 0);
    }

    #[test]
    fn group_rung_takes_fewer_locks_than_the_handle_rung() {
        let single = handle_counts(&FRESH_SHORT, 5, false);
        let grouped = handle_counts(&FRESH_SHORT, 5, true);
        assert!(grouped.counters.group_batches > 0);
        assert_eq!(single.counters.group_batches, 0);
        assert!(grouped.counters.lock_acquires < single.counters.lock_acquires);
    }

    #[test]
    fn server_rung_repeats_its_counts_exactly() {
        for shape in [FRESH_SHORT, REUSE, OPEN] {
            let epoch = shape.epoch(5, 0);
            let (a, _) = server_rung(&shape, &epoch, &mut Tracer::off()).unwrap();
            let (b, _) = server_rung(&shape, &epoch, &mut Tracer::off()).unwrap();
            assert_eq!(
                a.counters.repeatable(),
                b.counters.repeatable(),
                "{}",
                shape.name
            );
        }
    }

    #[test]
    fn tm_rungs_repeat_their_counts_and_tracing_changes_none() {
        let input = tm::epoch(5, 0);
        let off = |tr: &mut Tracer| {
            [
                tm_rung(&mut tm::optimistic(&input), "tm.optimistic.tick", tr).unwrap(),
                tm_rung(&mut tm::boosting(&input), "tm.boosting.tick", tr).unwrap(),
                tm_rung(&mut tm::tl2(&input), "tm.tl2.tick", tr).unwrap(),
            ]
        };
        let a = off(&mut Tracer::off());
        let b = off(&mut Tracer::off());
        let mut tracer = Tracer::on(1 << 16);
        let traced = off(&mut tracer);
        for d in 0..3 {
            assert_eq!(a[d].counters.commits, (tm::THREADS * tm::TXNS) as u64);
            assert_eq!(
                a[d].counters.repeatable(),
                b[d].counters.repeatable(),
                "driver {d}"
            );
            // The spelled-out loop is `run`: same ticks, same counts. (The
            // tracer's buffer is allocated up front, so allocations match.)
            assert_eq!(a[d].counters.repeatable(), traced[d].counters.repeatable());
        }
        assert!(tracer.spans().iter().any(|s| s.name == "tm.tl2.tick"));
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn repeat_takes_turns_and_reports_inexact_counts() {
        let mut order = Vec::new();
        let mut n = 0;
        let rungs = repeat(
            0.0,
            4,
            &mut [
                &mut |_| {
                    n += 1;
                    let mut run = RungRun::default();
                    run.counters.commits = n;
                    Ok(run)
                },
                &mut |_| {
                    order.push(order.len());
                    Ok(RungRun::default())
                },
            ],
        )
        .unwrap();
        assert_eq!((rungs[0].reps, rungs[1].reps), (2, 2));
        assert!(!rungs[0].exact);
        assert!(rungs[1].exact);
        assert_eq!(
            rungs[0].run.counters.commits, 1,
            "the first execution's counts"
        );
    }

    #[test]
    fn spec_rung_times_the_committed_log() {
        let epoch = FRESH_SHORT.epoch(5, 0);
        let (_, sys) = server_rung(&FRESH_SHORT, &epoch, &mut Tracer::off()).unwrap();
        let (allowed, mover) = spec_rung(sys.machine(), 3);
        assert!(allowed > 0.0 && mover > 0.0);
    }
}
