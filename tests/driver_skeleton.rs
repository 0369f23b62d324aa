//! The contract `pushpull_tm::driver::Driver` owns once for all ten §6/§7
//! algorithm classes (and that `TxnServer` implements on its own):
//!
//! * **`workers()[i]` is `tick(ThreadId(i))`.** `ParallelSystem` documents
//!   the equivalence "up to interleaving"; the OS-scheduled suites can
//!   only sample it. Here one system is driven by `tick(ThreadId(i % n))`
//!   and a fresh identical one by calling `workers()[i % n]` in the same
//!   order on one OS thread, and the rendered trace, the audit ledger
//!   (raw query counts included) and `stats()` must come out equal, tick
//!   outcome by tick outcome.
//! * **A clone shares nothing.** `Clone` gives the copy a free degrade
//!   token and fresh governors: a system cloned mid-run and finished
//!   under a different schedule leaves the original untouched, and the
//!   original's run leaves the clone's statistics untouched.
//! * **The skeleton counts what it reports.** Every commit, abort and
//!   blocked tick goes through `Driver`'s one lifecycle, so `stats()`
//!   holds one commit per `Tick::Committed`, one abort per
//!   `Tick::Aborted`, and at least one blocked tick per `Tick::Blocked`
//!   (a wait the contention policy gives up on is a blocked tick reported
//!   as `Aborted`) — on the contended programs, and again with seeded
//!   injected kills armed, which take the same abort.

use std::sync::Arc;

use pushpull::core::faults::{FaultHook, FaultKind};
use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::SeqSpec;
use pushpull::harness::FaultPlan;
use pushpull::server::{ServerConfig, SessionScript, TxnServer};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::{
    BoostingSystem, CheckpointOptimistic, DependentSystem, HtmSystem, IrrevocableSystem,
    MatveevShavitSystem, MixedSystem, OptimisticSystem, ParallelSystem, Tick, Tl2System, TmSystem,
    TwoPhaseLocking,
};

const BUDGET: usize = 200_000;

/// Drives `sys` by `tick(order(i))` until done, returning every outcome.
fn drive<T: TmSystem>(label: &str, sys: &mut T, order: impl Fn(usize) -> usize) -> Vec<Tick> {
    let mut ticks = Vec::new();
    while !sys.is_done() {
        assert!(ticks.len() < BUDGET, "{label}: wedged");
        let tid = ThreadId(order(ticks.len()));
        ticks.push(
            sys.tick(tid)
                .unwrap_or_else(|e| panic!("{label}: machine error: {e}")),
        );
    }
    ticks
}

/// Drives one `make()` by `tick`, a second by its `workers()`, in the
/// same round-robin order, and asserts they cannot be told apart.
fn assert_workers_match_ticks<T>(label: &str, make: impl Fn() -> T)
where
    T: ParallelSystem,
    <T::MachineSpec as SeqSpec>::Method: std::fmt::Display,
{
    let mut ticked = make();
    let n = ticked.thread_count();
    let ticks = drive(label, &mut ticked, |i| i % n);
    assert!(ticks.contains(&Tick::Committed), "{label}: nothing ran");

    let mut split = make();
    {
        let mut workers = split.workers();
        assert_eq!(workers.len(), n, "{label}: one worker per thread");
        for (i, expected) in ticks.iter().enumerate() {
            let got = workers[i % n]().unwrap_or_else(|e| panic!("{label}: worker error: {e}"));
            assert_eq!(got, *expected, "{label}: tick {i} diverges");
        }
    }
    assert!(split.is_done(), "{label}: workers left work behind");
    assert_eq!(
        split.machine().trace().render(),
        ticked.machine().trace().render(),
        "{label}: traces diverge"
    );
    assert_eq!(
        split.machine().audit(),
        ticked.machine().audit(),
        "{label}: audits diverge"
    );
    assert_eq!(split.stats(), ticked.stats(), "{label}: stats diverge");
}

/// Clones `make()` a few ticks in, finishes the clone under a reversed
/// schedule and only then the original, and asserts neither run can see
/// the other.
fn assert_clone_diverges<T>(label: &str, make: impl Fn() -> T)
where
    T: TmSystem + Clone,
    <T::MachineSpec as SeqSpec>::Method: std::fmt::Display,
{
    let mut orig = make();
    let n = orig.thread_count();
    for i in 0..3 * n {
        orig.tick(ThreadId(i % n)).unwrap();
    }
    assert!(!orig.is_done(), "{label}: clone point is past the end");
    let mut fork = orig.clone();
    let snapshot = |s: &T| (s.stats(), s.machine().trace().render());
    let at_fork = snapshot(&orig);
    assert_eq!(fork.machine().trace().render(), at_fork.1);

    drive(label, &mut fork, |i| n - 1 - i % n);
    assert_eq!(
        snapshot(&orig),
        at_fork,
        "{label}: the clone moved the original"
    );
    let fork_stats = fork.stats();

    drive(label, &mut orig, |i| i % n);
    assert_eq!(
        fork.stats(),
        fork_stats,
        "{label}: the original moved the clone"
    );
    assert_eq!(fork.stats().commits, orig.stats().commits);
    for sys in [&orig, &fork] {
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{label}: {report}");
    }
}

/// Drives `sys` round-robin to the end and asserts its counters agree
/// with the ticks it reported.
fn assert_counts_match_ticks<T: TmSystem>(label: &str, mut sys: T) {
    let n = sys.thread_count();
    let ticks = drive(label, &mut sys, |i| i % n);
    let reported = |kind: Tick| ticks.iter().filter(|t| **t == kind).count() as u64;
    let stats = sys.stats();
    assert_eq!(stats.commits, reported(Tick::Committed), "{label}: commits");
    assert_eq!(stats.aborts, reported(Tick::Aborted), "{label}: aborts");
    assert!(
        stats.blocked_ticks >= reported(Tick::Blocked),
        "{label}: {} blocked ticks, {} reported",
        stats.blocked_ticks,
        reported(Tick::Blocked)
    );
}

/// [`assert_counts_match_ticks`] on `make()`, then on three more with a
/// seeded kill plan armed; at least one kill must fire.
fn assert_counts_match_ticks_under_kills<T: TmSystem>(label: &str, make: impl Fn() -> T) {
    assert_counts_match_ticks(label, make());
    let mut kills = 0;
    for seed in 1..=3 {
        let sys = make();
        let plan = Arc::new(FaultPlan::seeded(seed, sys.thread_count(), FaultKind::Kill));
        sys.machine()
            .set_fault_hook(Some(Arc::clone(&plan) as Arc<dyn FaultHook>));
        assert_counts_match_ticks(&format!("{label}/kill/{seed}"), sys);
        kills += plan.fired_total();
    }
    assert!(kills > 0, "{label}: no injected kill fired");
}

fn assert_skeleton_contract<T>(label: &str, make: impl Fn() -> T)
where
    T: ParallelSystem + Clone,
    <T::MachineSpec as SeqSpec>::Method: std::fmt::Display,
{
    assert_workers_match_ticks(label, &make);
    assert_clone_diverges(label, &make);
    assert_counts_match_ticks_under_kills(label, &make);
}

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

/// Four threads, two read-modify-writes each, pairwise conflicting.
fn rmw_programs() -> Vec<Vec<Code<MemMethod>>> {
    (0..4u32)
        .map(|t| [rmw(t % 2, i64::from(t)), rmw((t + 1) % 2, 9)].concat())
        .collect()
}

fn kv_programs() -> Vec<Vec<Code<MapMethod>>> {
    (0..4u64)
        .map(|t| {
            vec![
                Code::seq_all(vec![
                    Code::method(MapMethod::Put(t % 2, t as i64)),
                    Code::method(MapMethod::Get((t + 1) % 2)),
                ]),
                Code::method(MapMethod::Put(t, 1)),
            ]
        })
        .collect()
}

#[test]
fn optimistic_skeleton_contract() {
    for policy in [ReadPolicy::Snapshot, ReadPolicy::Refresh] {
        assert_skeleton_contract("optimistic", || {
            OptimisticSystem::new(RwMem::new(), rmw_programs(), policy)
        });
    }
}

#[test]
fn tl2_skeleton_contract() {
    assert_skeleton_contract("tl2", || Tl2System::new(rmw_programs()));
}

#[test]
fn checkpoint_skeleton_contract() {
    assert_skeleton_contract("checkpoint", || {
        CheckpointOptimistic::new(RwMem::new(), rmw_programs())
    });
}

#[test]
fn pessimistic_skeleton_contract() {
    assert_skeleton_contract("pessimistic", || {
        MatveevShavitSystem::new(RwMem::new(), rmw_programs())
    });
}

#[test]
fn boosting_skeleton_contract() {
    assert_skeleton_contract("boosting", || {
        BoostingSystem::new(KvMap::new(), kv_programs())
    });
}

#[test]
fn twophase_skeleton_contract() {
    assert_skeleton_contract("2pl", || TwoPhaseLocking::new(rmw_programs()));
}

#[test]
fn irrevocable_skeleton_contract() {
    assert_skeleton_contract("irrevocable", || {
        IrrevocableSystem::new(RwMem::new(), rmw_programs(), ThreadId(0))
    });
}

#[test]
fn dependent_skeleton_contract() {
    let programs = || {
        (0..4i64)
            .map(|t| {
                vec![
                    Code::seq_all(vec![
                        Code::method(CtrMethod::Add(t + 1)),
                        Code::method(CtrMethod::Get),
                    ]),
                    Code::method(CtrMethod::Add(1)),
                ]
            })
            .collect::<Vec<_>>()
    };
    assert_skeleton_contract("dependent", || {
        DependentSystem::new(Counter::new(), programs(), true)
    });
}

#[test]
fn htm_skeleton_contract() {
    assert_skeleton_contract("htm", || HtmSystem::new(rmw_programs()));
}

#[test]
fn mixed_skeleton_contract() {
    let programs = || {
        (0..4u64)
            .map(|t| {
                vec![
                    Code::seq_all(vec![
                        Code::method(methods::skiplist(SetMethod::Add(t))),
                        Code::method(methods::size(CtrMethod::Add(1))),
                        Code::method(methods::mem(MemMethod::Write(Loc((t % 2) as u32), 1))),
                    ]),
                    Code::method(methods::hash_table(MapMethod::Put(t, t as i64))),
                ]
            })
            .collect::<Vec<_>>()
    };
    assert_skeleton_contract("mixed", || MixedSystem::new(mixed_spec(), programs()));
}

#[test]
fn server_workers_match_ticks() {
    for group_commit in [true, false] {
        assert_workers_match_ticks("txn-server", || {
            let scripts = (0..24u64)
                .map(|s| {
                    SessionScript::commit(vec![MapMethod::Get(s % 3), MapMethod::Put(s % 3, 1)])
                })
                .collect();
            let config = ServerConfig {
                workers: 3,
                slots_per_worker: 2,
                group_commit,
                ..ServerConfig::default()
            };
            TxnServer::new(KvMap::new(), scripts, config)
        });
    }
}
