//! Chaos matrix: every §6/§7 algorithm × every fault kind × several
//! seeds, under deterministic seeded [`FaultPlan`]s.
//!
//! The robustness contract has three parts, asserted on every cell by
//! the shared [`assert_chaos_cell`] loop:
//!
//! 1. **Completion** — injected denials, kills, stalls and HTM aborts
//!    exercise each driver's recovery rules, and the contention policy
//!    bounds every retry loop, so a faulted run still finishes within a
//!    generous tick budget.
//! 2. **Accounting** — the machine audit's `injected` tallies equal the
//!    plan's own fired tallies *exactly* (including kinds that never
//!    fired: absent on both sides), proving each fault was delivered
//!    once and recorded once, and never leaked into `violated`.
//! 3. **Safety** — the serializability oracle passes on every faulted
//!    run, and the opacity oracle on the algorithms that are opaque by
//!    design (optimistic snapshot, MS pessimistic, HTM).
//!
//! Two regression tests ride along: the checkpoint commit-cycle livelock
//! that motivated a bounded contention policy, and the default
//! policy's guarantee that a transaction starving past the
//! retry budget commits solo.

use std::sync::Arc;

use pushpull::core::error::Rule;
use pushpull::core::faults::{FaultHook, FaultKind, ALL_FAULT_KINDS};
use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::harness::testutil::{assert_chaos_cell, assert_injection_accounted};
use pushpull::harness::{run, FaultPlan, RandomSched, RoundRobin};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::{
    BoostingSystem, CheckpointOptimistic, ContentionPolicy, DependentSystem, HtmSystem,
    IrrevocableSystem, MatveevShavitSystem, MixedSystem, OptimisticSystem, Tl2System, TmSystem,
    TwoPhaseLocking,
};

/// Per-run tick budget. Normal runs finish in hundreds of ticks; stalls
/// are ≤ 3 ticks, backoff windows are capped, and blocked waits are
/// bounded by the contention policy's patience, so exhausting this
/// means a genuine wedge.
const BUDGET: usize = 300_000;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=3;

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

/// Runs one chaos cell through the shared [`assert_chaos_cell`] loop.
fn chaos<T: TmSystem>(label: &str, sys: T, kind: FaultKind, seed: u64, expect_opaque: bool) {
    let plan = Arc::new(FaultPlan::seeded(seed, sys.thread_count(), kind));
    let cell = format!("{label}/{kind}");
    assert_chaos_cell(&cell, sys, &plan, seed, BUDGET, expect_opaque);
}

#[test]
fn chaos_matrix_boosting() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let programs: Vec<_> = (0..3u64)
                .map(|t| {
                    vec![Code::seq_all(vec![
                        Code::method(MapMethod::Put(t % 2, t as i64)),
                        Code::method(MapMethod::Get((t + 1) % 2)),
                    ])]
                })
                .collect();
            let sys = BoostingSystem::new(KvMap::new(), programs);
            chaos("boosting", sys, kind, seed, false);
        }
    }
}

#[test]
fn chaos_matrix_optimistic() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let programs = vec![rmw(0, 1), rmw(1, 2), rmw(0, 3)];
            let sys = OptimisticSystem::new(RwMem::new(), programs, ReadPolicy::Snapshot);
            chaos("optimistic", sys, kind, seed, true);
        }
    }
}

#[test]
fn chaos_matrix_pessimistic() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let programs = vec![rmw(0, 1), rmw(0, 2), rmw(1, 3)];
            let sys = MatveevShavitSystem::new(RwMem::new(), programs);
            chaos("pessimistic", sys, kind, seed, true);
        }
    }
}

#[test]
fn chaos_matrix_tl2() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let sys = Tl2System::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3)]);
            chaos("tl2", sys, kind, seed, false);
        }
    }
}

#[test]
fn chaos_matrix_twophase() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let read0 = || vec![Code::method(MemMethod::Read(Loc(0)))];
            let sys = TwoPhaseLocking::new(vec![read0(), rmw(0, 7), rmw(1, 8)]);
            chaos("twophase", sys, kind, seed, false);
        }
    }
}

#[test]
fn chaos_matrix_htm() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let sys = HtmSystem::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3)]);
            chaos("htm", sys, kind, seed, true);
        }
    }
}

#[test]
fn chaos_matrix_irrevocable() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let programs = vec![rmw(0, 10), rmw(0, 20), rmw(1, 30)];
            let sys = IrrevocableSystem::new(RwMem::new(), programs, ThreadId(0));
            chaos("irrevocable", sys, kind, seed, false);
        }
    }
}

#[test]
fn chaos_matrix_checkpoint() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let prog = |l: u32, v: i64| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Read(Loc(l))),
                    Code::method(MemMethod::Read(Loc(l + 1))),
                    Code::method(MemMethod::Write(Loc(l), v)),
                ])]
            };
            let sys =
                CheckpointOptimistic::new(RwMem::new(), vec![prog(0, 1), prog(0, 2), prog(1, 3)]);
            chaos("checkpoint", sys, kind, seed, false);
        }
    }
}

#[test]
fn chaos_matrix_dependent() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let programs: Vec<_> = (0..3i64)
                .map(|t| {
                    vec![Code::seq_all(vec![
                        Code::method(CtrMethod::Add(t + 1)),
                        Code::method(CtrMethod::Get),
                    ])]
                })
                .collect();
            let sys = DependentSystem::new(Counter::new(), programs, true);
            chaos("dependent", sys, kind, seed, false);
        }
    }
}

#[test]
fn chaos_matrix_mixed() {
    for kind in ALL_FAULT_KINDS {
        for seed in SEEDS {
            let programs: Vec<_> = (0..3u64)
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
            chaos("mixed", sys, kind, seed, false);
        }
    }
}

/// The never-abort invariants survive fault injection: the irrevocable
/// thread treats injected kills as stalls and injected denials as
/// transient blocks, so it still commits without a single abort.
#[test]
fn irrevocable_thread_survives_targeted_kills() {
    for seed in SEEDS {
        let programs = vec![rmw(0, 10), rmw(0, 20)];
        let mut sys = IrrevocableSystem::new(RwMem::new(), programs, ThreadId(0));
        // Target the irrevocable thread specifically: kill at its first
        // two boundaries, deny its first CMT.
        let plan = Arc::new(
            FaultPlan::new(2)
                .kill(0, 0)
                .kill(0, 1)
                .deny(0, Rule::Cmt, 0),
        );
        sys.machine()
            .set_fault_hook(Some(plan.clone() as Arc<dyn FaultHook>));
        let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
        assert!(out.completed, "seed {seed}: wedged");
        assert_eq!(sys.stats().commits, 2, "seed {seed}");
        assert_eq!(
            sys.irrevocable_aborts(),
            0,
            "seed {seed}: irrevocable thread aborted under injected faults"
        );
        assert_injection_accounted(&sys.machine().audit(), &plan.fired());
        assert!(
            check_machine(sys.machine()).is_serializable(),
            "seed {seed}"
        );
    }
}

fn contending_checkpoint(policy: ContentionPolicy) -> CheckpointOptimistic<RwMem> {
    // Opposite push orders on two shared locations: t0 pushes w0 then
    // w1, t1 pushes w1 then w0.
    let prog = |first: u32, second: u32, v: i64| {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Write(Loc(first), v)),
            Code::method(MemMethod::Write(Loc(second), v)),
        ])]
    };
    CheckpointOptimistic::new(RwMem::new(), vec![prog(0, 1, 5), prog(1, 0, 7)]).with_policy(policy)
}

/// Denying thread 0's *second* PUSH leaves its first write pushed but
/// uncommitted. Thread 1's commit batch then pushes its own first write
/// and genuinely conflicts on the second — a cycle of uncommitted pushed
/// ops in which each thread waits for the other. Under immediate-retry
/// ("wait forever") this livelocks; any policy with bounded patience
/// gives up, UNPUSHes the cycle, and both threads commit. This is the
/// scenario that forced the old hard-coded blocked-streak threshold out
/// of the driver and into the contention policy.
#[test]
fn checkpoint_push_cycle_livelocks_under_immediate_retry() {
    let wedge = |policy: ContentionPolicy, budget: usize| {
        let mut sys = contending_checkpoint(policy);
        let plan = Arc::new(FaultPlan::new(2).deny(0, Rule::Push, 1));
        sys.machine()
            .set_fault_hook(Some(plan as Arc<dyn FaultHook>));
        let out = run(&mut sys, &mut RoundRobin, budget).unwrap();
        (sys, out)
    };

    // Baseline policy: both threads block forever on the push cycle.
    let (sys, out) = wedge(ContentionPolicy::IMMEDIATE_RETRY, 50_000);
    assert!(
        !out.completed,
        "immediate-retry was expected to livelock but completed in {} ticks",
        out.ticks
    );
    assert_eq!(sys.stats().commits, 0, "no thread can commit in the cycle");

    // The bounded-patience default aborts one side of the cycle and
    // recovers.
    let (sys, out) = wedge(ContentionPolicy::DEFAULT, BUDGET);
    assert!(out.completed, "failed to break the push cycle");
    assert_eq!(sys.stats().commits, 2);
    assert!(sys.stats().aborts >= 1, "recovery requires a full abort");
    let report = check_machine(sys.machine());
    assert!(report.is_serializable(), "{report}");
}

/// Acceptance: a transaction that starves past the retry budget under
/// repeated commit denials is escalated to solo (degraded) mode and
/// commits. The degradation is visible in `SystemStats`.
#[test]
fn degradation_commits_a_starving_transaction() {
    let policy = ContentionPolicy::DEFAULT;
    let budget = policy.retry_budget.expect("the default degrades");
    let mut sys = OptimisticSystem::new(
        RwMem::new(),
        vec![rmw(0, 1), rmw(1, 2)],
        ReadPolicy::Snapshot,
    )
    .with_policy(policy);
    // Deny thread 0's CMT for `budget + 4` consecutive attempts: enough
    // to blow the retry budget, degrade, and keep aborting a few more
    // times while already solo before the denial finally lifts.
    let mut plan = FaultPlan::new(2);
    for at in 0..u64::from(budget) + 4 {
        plan = plan.deny(0, Rule::Cmt, at);
    }
    let plan = Arc::new(plan);
    sys.machine()
        .set_fault_hook(Some(plan.clone() as Arc<dyn FaultHook>));
    let out = run(&mut sys, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed, "wedged after {} ticks", out.ticks);

    let stats = sys.stats();
    assert_eq!(stats.commits, 2, "the starving transaction must commit");
    assert!(
        stats.degradations >= 1,
        "starvation past the retry budget must escalate to solo mode"
    );
    assert!(
        stats.max_abort_streak >= u64::from(budget),
        "streak {} never reached the retry budget {budget}",
        stats.max_abort_streak
    );
    assert_injection_accounted(&sys.machine().audit(), &plan.fired());
    assert!(check_machine(sys.machine()).is_serializable());
}

/// Every policy drives a genuinely contended (unfaulted) workload to
/// completion — both named policies on both an optimistic and a
/// lock-based driver.
#[test]
fn every_policy_completes_contended_runs() {
    let policies = [
        ("immediate-retry", ContentionPolicy::IMMEDIATE_RETRY),
        ("graceful-degradation", ContentionPolicy::DEFAULT),
    ];
    for (name, policy) in policies {
        let mut sys = OptimisticSystem::new(
            RwMem::new(),
            vec![rmw(0, 1), rmw(0, 2), rmw(0, 3)],
            ReadPolicy::Snapshot,
        )
        .with_policy(policy);
        let out = run(&mut sys, &mut RandomSched::new(11), BUDGET).unwrap();
        assert!(out.completed, "optimistic/{name}");
        assert_eq!(sys.stats().commits, 3, "optimistic/{name}");
        assert!(
            check_machine(sys.machine()).is_serializable(),
            "optimistic/{name}"
        );

        let mut sys =
            TwoPhaseLocking::new(vec![rmw(0, 4), rmw(0, 5), rmw(1, 6)]).with_policy(policy);
        let out = run(&mut sys, &mut RandomSched::new(11), BUDGET).unwrap();
        assert!(out.completed, "twophase/{name}");
        assert_eq!(sys.stats().commits, 3, "twophase/{name}");
        assert!(
            check_machine(sys.machine()).is_serializable(),
            "twophase/{name}"
        );
    }
}
