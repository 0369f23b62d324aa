//! Golden runs of the service front-end, plus the server's chaos rows and
//! the multiplexing scale test.
//!
//! Eleven workload families — the same spec/method mixes the §6/§7
//! drivers run, and one of coarse-routed and empty sessions — go through
//! [`TxnServer`] at shard counts 1, 4 and 16. Every run
//! drains, loses no session and is serializable. The server records no
//! trace by default, so one run of each family turns it on; a second
//! stays untraced, as the server ships, and must match the traced one in
//! outcomes, committed transactions, audit ledger and statistics.
//!
//! Riding along:
//!
//! * the held-commit seam contract (`commit_group` over the handles of
//!   the machine every system hands out, and end-to-end on a raw
//!   machine);
//! * the server's chaos rows: every injected rule denial through the
//!   whole session loop under a seeded random scheduler with exact
//!   injection accounting;
//! * the session retry budget: sessions that cannot commit within
//!   `max_retries` fail cleanly while the server drains;
//! * ten thousand logical sessions multiplexed onto 256 worker slots,
//!   each committing under one shard-lock acquisition.

use std::sync::Arc;

use pushpull::core::error::{Clause, MachineError, Rule};
use pushpull::core::faults::FaultKind;
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::SeqSpec;
use pushpull::core::{commit_group, GroupStats, GroupTxnResult};
use pushpull::harness::testutil::assert_chaos_cell;
use pushpull::harness::{run, FaultPlan, RoundRobin, WorkloadSpec};
use pushpull::server::{ServerConfig, SessionOutcome, SessionScript, TxnServer};
use pushpull::spec::bank::Bank;
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::queue::{QueueMethod, QueueSpec};
use pushpull::spec::register::{CasRegister, RegMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::{SetMethod, SetSpec};
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::{BoostingSystem, TmSystem};

const BUDGET: usize = 2_000_000;

/// Shard counts the equivalence is quantified over.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// Sessions from a generated per-thread workload: every transaction body
/// becomes one logical session (the server, not the generator, decides
/// placement).
fn sessions_from<M: Clone + PartialEq>(programs: Vec<Vec<Code<M>>>) -> Vec<SessionScript<M>> {
    programs
        .iter()
        .flatten()
        .map(SessionScript::from_code)
        .collect()
}

/// One server run: choose tracing, reshard, drive to completion
/// round-robin, check what holds of every run, and hand the server back.
fn golden<S: SeqSpec>(
    label: &str,
    spec: S,
    scripts: Vec<SessionScript<S::Method>>,
    shards: usize,
    traced: bool,
) -> TxnServer<S>
where
    S::Method: std::fmt::Display,
    S::Ret: std::fmt::Debug,
{
    let expected = scripts.len() as u64;
    let mut sys = TxnServer::new(
        spec,
        scripts,
        ServerConfig {
            workers: 2,
            slots_per_worker: 4,
            ..ServerConfig::default()
        },
    );
    sys.machine_mut().set_trace(traced);
    sys.set_log_shards(shards);
    let which = if traced { "traced" } else { "untraced" };
    let out = run(&mut sys, &mut RoundRobin, BUDGET)
        .unwrap_or_else(|e| panic!("{label}@{shards}/{which}: machine error: {e}"));
    assert!(out.completed, "{label}@{shards}/{which}: wedged");
    let stats = sys.stats();
    assert_eq!(
        stats.sessions, expected,
        "{label}@{shards}/{which}: sessions lost"
    );
    let report = check_machine(sys.machine());
    assert!(
        report.is_serializable(),
        "{label}@{shards}/{which}: {report}"
    );
    sys
}

/// Runs `scripts()` through the server traced and untraced at every shard
/// count, and asserts that recording the trace changed nothing else.
fn assert_server_equivalence<S: SeqSpec>(
    label: &str,
    spec: impl Fn() -> S,
    scripts: impl Fn() -> Vec<SessionScript<S::Method>>,
) where
    S::Method: std::fmt::Display,
    S::Ret: std::fmt::Debug,
{
    for shards in SHARD_COUNTS {
        let traced = golden(label, spec(), scripts(), shards, true);
        let untraced = golden(label, spec(), scripts(), shards, false);
        assert_untraced_matches(&format!("{label}@{shards}"), &traced, &untraced);
    }
}

/// `untraced` — the same server run with event recording off — matches
/// `traced` in outcomes, committed transactions, audit and statistics,
/// and recorded no event.
fn assert_untraced_matches<S: SeqSpec>(cell: &str, traced: &TxnServer<S>, untraced: &TxnServer<S>) {
    let (t, u) = (traced.machine(), untraced.machine());
    assert!(t.traced() && !u.traced(), "{cell}: tracing not as chosen");
    assert_eq!(
        traced.outcomes(),
        untraced.outcomes(),
        "{cell}: untraced outcomes diverge"
    );
    assert_eq!(
        format!("{:?}", t.committed_txns()),
        format!("{:?}", u.committed_txns()),
        "{cell}: untraced committed transactions diverge"
    );
    assert_eq!(t.audit(), u.audit(), "{cell}: untraced audit diverges");
    assert_eq!(
        traced.stats(),
        untraced.stats(),
        "{cell}: untraced statistics diverge"
    );
    assert!(
        t.global_state().events_recorded() > 0,
        "{cell}: nothing traced"
    );
    assert_eq!(
        u.global_state().events_recorded(),
        0,
        "{cell}: the untraced server recorded events"
    );
}

#[test]
fn kvmap_contended_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 4,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 4,
        read_ratio: 0.5,
        seed: 11,
    };
    assert_server_equivalence("server/kvmap", KvMap::new, || {
        sessions_from(wl.kvmap_programs())
    });
}

/// Sessions with a `Size` (no single-key footprint: above one shard it
/// routes coarse, and its section holds every shard) beside keyed ones,
/// and one session with no operation at all — both commit in a held
/// section like every other.
#[test]
fn kvmap_coarse_and_empty_group_equivalent() {
    assert_server_equivalence("server/kvmap-coarse", KvMap::new, || {
        let keyed = (0..12u64).map(|s| match s % 3 {
            0 => SessionScript::commit(vec![MapMethod::Put(s % 5, s as i64), MapMethod::Size]),
            1 => SessionScript::commit(vec![MapMethod::Size, MapMethod::Get(s % 5)]),
            _ => SessionScript::commit(vec![MapMethod::Get(s % 5), MapMethod::Put(s % 7, 1)]),
        });
        keyed.chain([SessionScript::commit(vec![])]).collect()
    });
}

#[test]
fn kvmap_disjoint_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 4,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 64,
        read_ratio: 0.2,
        seed: 12,
    };
    assert_server_equivalence("server/kvmap-disjoint", KvMap::new, || {
        sessions_from(wl.kvmap_disjoint_programs())
    });
}

#[test]
fn rwmem_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 4,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 6,
        read_ratio: 0.6,
        seed: 13,
    };
    assert_server_equivalence("server/rwmem", RwMem::new, || {
        sessions_from(wl.rwmem_programs())
    });
}

#[test]
fn counter_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 3,
        txns_per_thread: 4,
        ops_per_txn: 2,
        key_range: 8,
        read_ratio: 0.3,
        seed: 14,
    };
    assert_server_equivalence("server/counter", Counter::new, || {
        sessions_from(wl.counter_programs())
    });
}

#[test]
fn bank_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 3,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 4,
        read_ratio: 0.4,
        seed: 15,
    };
    assert_server_equivalence("server/bank", Bank::new, || {
        sessions_from(wl.bank_programs())
    });
}

#[test]
fn set_group_equivalent() {
    assert_server_equivalence("server/set", SetSpec::new, || {
        (0..12u64)
            .map(|s| {
                SessionScript::commit(vec![
                    SetMethod::Add(s % 5),
                    SetMethod::Contains((s + 1) % 5),
                    SetMethod::Remove((s + 2) % 5),
                ])
            })
            .collect()
    });
}

#[test]
fn queue_group_equivalent() {
    assert_server_equivalence("server/queue", QueueSpec::new, || {
        (0..12i64)
            .map(|s| {
                if s % 3 == 0 {
                    SessionScript::commit(vec![QueueMethod::Deq])
                } else {
                    SessionScript::commit(vec![QueueMethod::Enq(s), QueueMethod::Peek])
                }
            })
            .collect()
    });
}

#[test]
fn register_group_equivalent() {
    assert_server_equivalence("server/register", CasRegister::new, || {
        (0..10i64)
            .map(|s| match s % 3 {
                0 => SessionScript::commit(vec![RegMethod::Write(s), RegMethod::Read]),
                1 => SessionScript::commit(vec![RegMethod::Read]),
                _ => SessionScript::commit(vec![RegMethod::Cas {
                    expected: s - 2,
                    new: s,
                }]),
            })
            .collect()
    });
}

#[test]
fn mixed_product_group_equivalent() {
    assert_server_equivalence("server/mixed", mixed_spec, || {
        (0..8u64)
            .map(|s| {
                SessionScript::commit(vec![
                    methods::skiplist(SetMethod::Add(s % 4)),
                    methods::size(CtrMethod::Add(1)),
                    methods::hash_table(MapMethod::Put(s, s as i64)),
                    methods::mem(MemMethod::Write(Loc((s % 2) as u32), 1)),
                ])
            })
            .collect()
    });
}

#[test]
fn abort_mix_group_equivalent() {
    // Half the sessions close with Abort: the rewinds must also be
    // invisible to what the committed half decides.
    assert_server_equivalence("server/abort-mix", KvMap::new, || {
        (0..16u64)
            .map(|s| {
                let ops = vec![MapMethod::Put(s % 6, s as i64), MapMethod::Get((s + 1) % 6)];
                if s % 2 == 0 {
                    SessionScript::commit(ops)
                } else {
                    SessionScript::abort(ops)
                }
            })
            .collect()
    });
}

/// The held-commit seam: every system hands out its machine, and
/// `commit_group` over that machine's handles reports a finished thread
/// `Ineligible`, and runs the ordinary CMT criteria on a thread that has
/// applied nothing yet — denied, it is aborted inside its section; on a
/// raw machine the same entry point really does commit, one held section
/// per transaction.
#[test]
fn service_commit_seam_contract() {
    // The seam, through a driver.
    let mut sys = BoostingSystem::new(
        KvMap::new(),
        vec![vec![Code::method(MapMethod::Put(0, 1))], vec![]],
    );
    let out = commit_group::<KvMap>(&mut []);
    assert!(out.results.is_empty());
    let [h0, h1] = sys.machine_mut().handles_mut() else {
        unreachable!("two threads")
    };
    let out = commit_group(&mut [h0, h1]);
    let cmt_i = |denied: &MachineError| match denied {
        MachineError::Criterion(v) => (v.rule, v.clause) == (Rule::Cmt, Clause::I),
        _ => false,
    };
    assert!(
        matches!(
            &out.results[..],
            [
                (ThreadId(0), GroupTxnResult::Aborted { denied, .. }),
                (ThreadId(1), GroupTxnResult::Ineligible),
            ] if cmt_i(denied)
        ),
        "an unapplied thread is denied CMT (i), a finished one refused: {:?}",
        out.results
    );

    // The same entry point on a raw machine, committing for real: two
    // applied transactions on one shard, two sections, two acquisitions.
    let mut m: Machine<KvMap> = Machine::new(KvMap::new());
    let t0 = m.add_thread(vec![Code::method(MapMethod::Put(0, 10))]);
    let t1 = m.add_thread(vec![Code::method(MapMethod::Put(1, 20))]);
    m.app_auto(t0).unwrap();
    m.app_auto(t1).unwrap();
    let (before, _) = m.lock_stats();
    let [h0, h1] = m.handles_mut() else {
        unreachable!("two threads")
    };
    let out = commit_group(&mut [h0, h1]);
    assert!(out
        .results
        .iter()
        .all(|(_, r)| matches!(r, GroupTxnResult::Committed(_))));
    let (after, _) = m.lock_stats();
    assert_eq!(after - before, 2, "each transaction takes the lock once");
    let sections = GroupStats {
        batches: 2,
        batched_txns: 2,
    };
    assert_eq!(m.group_stats(), sections, "a batch of one per commit");
    assert_eq!(m.committed_txns().len(), 2);
    assert!(check_machine(&m).is_serializable());
}

/// Every injected rule denial through the whole server loop — admission,
/// APP, the commit stage (inside a held section), the post-denial
/// refresh. The chaos contract — completion, exact injection accounting,
/// serializability — holds on every cell, faults really fire, and every
/// session still reaches an outcome.
#[test]
fn server_chaos_deny_matrix() {
    for rule in [Rule::App, Rule::Push, Rule::Pull, Rule::Cmt] {
        let kind = FaultKind::Deny(rule);
        for seed in 1..=3u64 {
            let scripts: Vec<_> = (0..12u64)
                .map(|s| {
                    SessionScript::commit(vec![
                        MapMethod::Put(s % 5, s as i64),
                        MapMethod::Get((s + 2) % 5),
                    ])
                })
                .collect();
            let expected = scripts.len();
            let config = ServerConfig {
                workers: 2,
                slots_per_worker: 3,
                seed,
                ..ServerConfig::default()
            };
            let sys = TxnServer::new(KvMap::new(), scripts, config);
            // Faults key on handle `ThreadId`s — one per slot, not
            // one per worker.
            let handles = config.workers * config.slots_per_worker;
            let plan = Arc::new(FaultPlan::seeded(seed, handles, kind));
            let cell = format!("server/{kind}");
            let sys = assert_chaos_cell(&cell, sys, &plan, seed, BUDGET, false);
            assert_eq!(
                sys.outcomes().len(),
                expected,
                "{cell}/seed {seed}: sessions lost under faults"
            );
            assert!(plan.fired_total() > 0, "{cell}/seed {seed}: no fault fired");
        }
    }
}

/// The session retry budget: sixteen read-modify-write sessions on one
/// key cannot all commit within `max_retries` ∈ {0, 1}. The losers must
/// fail with their last criterion denial and leave nothing behind, and
/// the server must drain.
#[test]
fn retry_budget_exhaustion_fails_sessions_clean() {
    const SESSIONS: usize = 16;
    for max_retries in [0, 1] {
        let scripts: Vec<_> = (0..SESSIONS as i64)
            .map(|s| SessionScript::commit(vec![MapMethod::Get(0), MapMethod::Put(0, s)]))
            .collect();
        let mut sys = TxnServer::new(
            KvMap::new(),
            scripts,
            ServerConfig {
                workers: 2,
                slots_per_worker: 4,
                max_retries,
                ..ServerConfig::default()
            },
        );
        let cell = format!("budget {max_retries}");
        let out = run(&mut sys, &mut RoundRobin, BUDGET).expect("a spent budget is not raised");
        assert!(out.completed, "{cell}: server must drain, not hang");

        let outcomes = sys.outcomes();
        for (s, o) in &outcomes {
            match o {
                SessionOutcome::Committed { .. } => {}
                SessionOutcome::Failed { error } => {
                    assert!(error.is_criterion(), "{cell}/{s}: failed with {error}");
                }
                SessionOutcome::Aborted { .. } => panic!("{cell}/{s}: no script aborts"),
            }
        }
        assert_eq!(outcomes.len(), SESSIONS, "{cell}: sessions lost");
        let commits = outcomes.iter().filter(|(_, o)| o.is_committed()).count();
        assert!(
            commits > 0 && commits < SESSIONS,
            "{cell}: {commits} commits — the budget must bind without starving everyone"
        );
        assert_eq!(sys.stats().commits as usize, commits, "{cell}");

        // Failed sessions leave nothing behind: `G` holds exactly the
        // winners' two operations each, and every handle is rewound to an
        // empty local log — a dead slot is a handle left mid-rewind.
        let m = sys.machine();
        assert_eq!(m.global().len(), 2 * commits, "{cell}: residue in G");
        for t in 0..m.thread_count() {
            let local = m.thread(ThreadId(t)).expect("in range").local();
            assert!(local.is_empty(), "{cell}: handle {t} left mid-rewind");
        }
        let report = check_machine(m);
        assert!(report.is_serializable(), "{cell}: {report}");
    }
}

/// Ten thousand logical sessions multiplexed onto 256 worker slots
/// (4 workers × 64 handles): every session commits under exactly one
/// shard-lock acquisition, and the deterministic outcome order names
/// every session exactly once. (The
/// O(n²) whole-log serializability oracle is deliberately skipped at
/// this scale; the equivalence families above cover the verdicts.)
#[test]
fn ten_thousand_sessions_multiplex() {
    const SESSIONS: u64 = 10_000;
    let scripts: Vec<_> = (0..SESSIONS)
        .map(|s| SessionScript::commit(vec![MapMethod::Put(s, s as i64)]))
        .collect();
    let mut sys = TxnServer::new(
        KvMap::new(),
        scripts,
        ServerConfig {
            workers: 4,
            slots_per_worker: 64,
            ..ServerConfig::default()
        },
    );
    let out = run(&mut sys, &mut RoundRobin, BUDGET).expect("machine error");
    assert!(out.completed, "10k-session drain wedged");
    let stats = sys.stats();
    assert_eq!(stats.sessions, SESSIONS);
    assert_eq!(stats.commits, SESSIONS);
    assert_eq!(
        stats.lock_acquires, stats.commits,
        "one shard-lock acquisition per committed transaction"
    );
    assert_eq!(stats.group_fallbacks, 0);
    let outcomes = sys.outcomes();
    assert_eq!(outcomes.len(), SESSIONS as usize);
    // Sorted, dense, and all committed.
    for (i, (s, o)) in outcomes.iter().enumerate() {
        assert_eq!(s.0, i as u64);
        assert!(o.is_committed(), "{s}: {o:?}");
    }
}
