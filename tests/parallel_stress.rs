//! Parallel stress: every §6/§7 algorithm under the handle-based
//! [`run_parallel`] harness — real OS threads, each owning its own
//! `TxnHandle`, no whole-system lock — with the OS scheduler providing
//! genuinely nondeterministic interleavings.
//!
//! Every run must still pass the serializability oracle, and each
//! algorithm's audit *pattern* (which proof obligations it discharges,
//! which it never violates) must survive real concurrency, not just the
//! seeded single-threaded schedulers.

use std::collections::{BTreeSet, HashMap};

use pushpull::core::error::{Clause, Rule};
use pushpull::core::lang::Code;
use pushpull::core::op::{OpId, ThreadId};
use pushpull::core::rng::Xorshift64;
use pushpull::core::serializability::check_machine;
use pushpull::core::Event;
use pushpull::harness::run_parallel;
use pushpull::server::{ServerConfig, SessionOutcome, SessionScript, TxnServer};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::{
    BoostingSystem, CheckpointOptimistic, DependentSystem, HtmSystem, IrrevocableSystem,
    MatveevShavitSystem, MixedSystem, OptimisticSystem, Tl2System, TmSystem, TwoPhaseLocking,
};

/// Generous per-thread tick budget: threshold-based abort policies bound
/// every wait, so a run that exhausts this has genuinely wedged.
const BUDGET: usize = 2_000_000;

const ROUNDS: usize = 4;

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

/// §6.3 boosting across 8 OS threads contending on 4 keys. APP ticks
/// touch no global lock; the abstract locks serialize conflicts.
#[test]
fn parallel_boosting_eight_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..8u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(t % 4, t as i64)),
                    Code::method(MapMethod::Get((t + 1) % 4)),
                ])]
            })
            .collect();
        let sys = BoostingSystem::new(KvMap::new(), programs);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 8, "round {round}");
        let audit = sys.machine().audit();
        // Every commit discharges CMT criterion (iii) exactly once.
        assert_eq!(
            audit.discharged_count(Rule::Cmt, Clause::Iii),
            8,
            "round {round}"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.2 optimistic (snapshot reads) across 6 OS threads on 2 locations.
/// (Unlike the seeded runs, a commit-time push batch can conflict *mid*
/// batch here, so the abort path may legitimately UNPUSH the partial
/// batch — the parallel invariant is the CMT discharge pattern.)
#[test]
fn parallel_optimistic_six_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..6u32)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Read(Loc(t % 2))),
                    Code::method(MemMethod::Write(Loc(t % 2), i64::from(t))),
                ])]
            })
            .collect();
        let sys = OptimisticSystem::new(RwMem::new(), programs, ReadPolicy::Snapshot);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 6, "round {round}");
        let audit = sys.machine().audit();
        assert_eq!(
            audit.discharged_count(Rule::Cmt, Clause::Iii),
            6,
            "round {round}"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.3 Matveev–Shavit: even under full write-write contention on real
/// threads, writers never abort — the commit token orders their bursts.
#[test]
fn parallel_pessimistic_writers_never_abort() {
    for round in 0..ROUNDS {
        let prog = |v: i64| vec![Code::method(MemMethod::Write(Loc(0), v))];
        let sys = MatveevShavitSystem::new(RwMem::new(), vec![prog(1), prog(2), prog(3), prog(4)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        assert_eq!(
            sys.stats().aborts,
            0,
            "round {round}: writers must not abort"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.2 concrete TL2 under real contention: version-clock validation
/// aborts resolve every race, and every run serializes.
#[test]
fn parallel_tl2_four_threads() {
    for round in 0..ROUNDS {
        let sys = Tl2System::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(1, 4)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.3 strict 2PL: shared read locks admit concurrent read pushes
/// (reads move across reads) and exclusive locks fence writes, so a 2PL
/// run discharges PUSH obligations but never violates one — even with
/// the interleaving chosen by the OS scheduler.
#[test]
fn parallel_twophase_never_violates_push_criteria() {
    for round in 0..ROUNDS {
        let read0 = || vec![Code::method(MemMethod::Read(Loc(0)))];
        let sys = TwoPhaseLocking::new(vec![read0(), read0(), rmw(1, 7), rmw(1, 8)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let audit = sys.machine().audit();
        assert_eq!(
            audit.violated_count(Rule::Push, Clause::Ii),
            0,
            "round {round}"
        );
        assert_eq!(
            audit.violated_count(Rule::Push, Clause::Iii),
            0,
            "round {round}"
        );
        assert!(
            audit.discharged_count(Rule::Push, Clause::Ii) > 0,
            "round {round}"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §7 simulated HTM: eager word-granularity conflict detection
/// (requester loses) across 4 OS threads.
#[test]
fn parallel_htm_four_threads() {
    for round in 0..ROUNDS {
        let sys = HtmSystem::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(2, 4)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.4 irrevocability: the eager-PUSH thread never aborts while racing
/// optimistic threads on the same locations, on real OS threads.
#[test]
fn parallel_irrevocable_thread_never_aborts() {
    for round in 0..ROUNDS {
        let programs = vec![rmw(0, 10), rmw(0, 20), rmw(1, 30), rmw(0, 40)];
        let sys = IrrevocableSystem::new(RwMem::new(), programs, ThreadId(0));
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        assert_eq!(
            sys.irrevocable_aborts(),
            0,
            "round {round}: irrevocable aborted"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.2 checkpoint/partial-abort optimism under contention: invalidated
/// suffixes rewind rather than full-abort, and every run serializes.
#[test]
fn parallel_checkpoint_four_threads() {
    for round in 0..ROUNDS {
        let prog = |l: u32, v: i64| {
            vec![Code::seq_all(vec![
                Code::method(MemMethod::Read(Loc(l))),
                Code::method(MemMethod::Read(Loc(l + 1))),
                Code::method(MemMethod::Write(Loc(l), v)),
            ])]
        };
        let sys = CheckpointOptimistic::new(
            RwMem::new(),
            vec![prog(0, 1), prog(0, 2), prog(1, 3), prog(1, 4)],
        );
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.5 dependent transactions: eager release publishes uncommitted
/// effects, racing threads PULL them and gate their commits; every
/// dependency is resolved (or detangled) by the end.
#[test]
fn parallel_dependent_four_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..4i64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(CtrMethod::Add(t + 1)),
                    Code::method(CtrMethod::Get),
                ])]
            })
            .collect();
        let sys = DependentSystem::new(Counter::new(), programs, true);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        for t in 0..4 {
            assert!(
                sys.dependencies(ThreadId(t)).is_empty(),
                "round {round}: thread {t} still has dependencies"
            );
        }
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §7 mixed boosting + HTM transactions on 4 OS threads: boosted
/// skiplist/hash-table ops share eagerly while HTM words conflict-check,
/// with partial HTM rewinds — still serializable on every run.
#[test]
fn parallel_mixed_four_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..4u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(methods::skiplist(SetMethod::Add(t))),
                    Code::method(methods::size(CtrMethod::Add(1))),
                    Code::method(methods::hash_table(MapMethod::Put(t, t as i64))),
                    Code::method(methods::mem(MemMethod::Write(Loc((t % 2) as u32), 1))),
                ])]
            })
            .collect();
        let sys = MixedSystem::new(mixed_spec(), programs);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// Shards of the shared-key server test below.
const SHARDS: usize = 16;

/// The held commit section, on OS threads under any schedule: a server of
/// the benchmark's `kv_reuse` shape — 2 workers × 8 slots, 64 sessions of
/// three operations over 16 shared keys, three quarters read-modify-write,
/// 16 shards, the default retry budget — drained epoch after epoch (600
/// in release, where CI's `stress` job runs this file; 12 in debug).
///
/// * Every session commits, and none spends more than 24 of its 32
///   retries: a committer the OS deschedules makes its peers wait on a
///   mutex, it does not burn their budget with PUSH (ii) denials against
///   an operation that was merely left uncommitted in `G`.
/// * The section is uninterleaved: in the merged trace, between a
///   transaction's first PUSH and its CMT (or, denied, its ABORT) no other
///   thread pushes, unpushes or commits an operation on a shard that
///   transaction's own operations route to.
#[test]
fn server_commits_are_uninterleaved_and_retries_stay_far_from_the_budget() {
    let epochs = if cfg!(debug_assertions) { 12 } else { 600 };
    let shard_of = |m: &MapMethod| m.key().expect("keyed methods only") as usize % SHARDS;
    let mut rng = Xorshift64::new(0x19);
    let mut retry_hist = [0u64; 33];
    for epoch in 0..epochs {
        let scripts: Vec<_> = (0..64)
            .map(|_| {
                let [k, k2, k3] = [0; 3].map(|_| rng.gen_range(0..16));
                SessionScript::commit(if rng.gen_index(4) == 0 {
                    vec![MapMethod::Get(k), MapMethod::Get(k2), MapMethod::Get(k3)]
                } else {
                    let v = rng.gen_range(0..1000) as i64;
                    vec![MapMethod::Get(k), MapMethod::Put(k, v), MapMethod::Get(k2)]
                })
            })
            .collect();
        let config = ServerConfig {
            workers: 2,
            slots_per_worker: 8,
            seed: rng.gen_range(0..u64::MAX),
            ..ServerConfig::default()
        };
        let cell = format!("epoch {epoch}");
        let mut sys = TxnServer::new(KvMap::new(), scripts, config);
        sys.machine_mut().set_trace(true);
        sys.set_log_shards(SHARDS);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "{cell}: incomplete");
        let outcomes = sys.outcomes();
        assert_eq!(outcomes.len(), 64, "{cell}: sessions lost");
        for (session, outcome) in outcomes {
            match outcome {
                SessionOutcome::Committed { retries, .. } => {
                    assert!(*retries <= 24, "{cell}: {session} spent {retries} retries");
                    retry_hist[*retries as usize] += 1;
                }
                other => panic!("{cell}: {session} ended {other:?}"),
            }
        }
        if epoch % 50 == 0 {
            let report = check_machine(sys.machine());
            assert!(report.is_serializable(), "{cell}: {report}");
        }

        // Per handle: the shards of the operations applied since its
        // BEGIN, and — from its first PUSH to its CMT or ABORT — the
        // section those shards make.
        let mut applied: HashMap<ThreadId, BTreeSet<usize>> = HashMap::new();
        let mut holding: HashMap<ThreadId, BTreeSet<usize>> = HashMap::new();
        let mut pushed: HashMap<OpId, usize> = HashMap::new();
        let trace = sys.machine().trace();
        for (at, event) in trace.events().iter().enumerate() {
            let who = event.thread();
            let touched: Vec<usize> = match event {
                Event::Push { op, method, .. } => {
                    pushed.insert(*op, shard_of(method));
                    let own = applied.get(&who).cloned().unwrap_or_default();
                    holding.entry(who).or_insert(own);
                    vec![shard_of(method)]
                }
                Event::UnPush { method, .. } => vec![shard_of(method)],
                Event::Commit { ops, .. } => ops.iter().map(|op| pushed[op]).collect(),
                Event::App { method, .. } => {
                    applied.entry(who).or_default().insert(shard_of(method));
                    vec![]
                }
                Event::Begin { .. } => {
                    applied.remove(&who);
                    vec![]
                }
                _ => vec![],
            };
            for (holder, section) in holding.iter().filter(|(h, _)| **h != who) {
                assert!(
                    touched.iter().all(|shard| !section.contains(shard)),
                    "{cell}: event {at} ({}) of {who} on shards {touched:?} falls inside \
                     the commit section of {holder} over {section:?}",
                    event.rule_name()
                );
            }
            if matches!(event, Event::Commit { .. } | Event::Abort { .. }) {
                holding.remove(&who);
            }
        }
        assert!(holding.is_empty(), "{cell}: a section never closed");
    }
    let max = retry_hist.iter().rposition(|n| *n > 0).unwrap_or(0);
    eprintln!(
        "kv_reuse-shaped server: {epochs} epochs, max retries {max}, histogram {:?}",
        &retry_hist[..=max]
    );
}
