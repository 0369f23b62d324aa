//! E2 / Figure 7 and §7: the mixed Boosting + HTM transaction.
//!
//! Checks the exact rule sequence of Figure 7, the §7 claims (HTM effects
//! can be UNPUSHed while boosted effects stay shared; the rewind is
//! partial), and the serializability of the mixed driver under many
//! random interleavings.

use pushpull::core::lang::Code;
use pushpull::core::serializability::check_machine;
use pushpull::core::Machine;
use pushpull::harness::{run, RandomSched, RoundRobin};
use pushpull::spec::counter::CtrMethod;
use pushpull::spec::kvmap::MapMethod;
use pushpull::spec::rwmem::{Loc, MemMethod};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec, MixedSpec, MixedSystem};
use pushpull::tm::TmSystem;

/// Drives the machine through Figure 7's exact rule sequence and checks
/// every intermediate claim of §7.
#[test]
fn figure7_rule_sequence_is_admissible() {
    let mut m: Machine<MixedSpec> = Machine::new(mixed_spec());
    let t = m.add_thread(vec![Code::seq_all(vec![
        Code::method(methods::skiplist(SetMethod::Add(1))),
        Code::method(methods::size(CtrMethod::Add(1))),
        Code::method(methods::hash_table(MapMethod::Put(1, 2))),
        Code::choice(
            Code::method(methods::mem(MemMethod::Write(Loc(0), 1))), // x++
            Code::method(methods::mem(MemMethod::Write(Loc(1), 1))), // y++
        ),
    ])]);

    let insert = m
        .app_method(t, &methods::skiplist(SetMethod::Add(1)))
        .unwrap();
    m.push(t, insert).unwrap();
    let size_inc = m.app_method(t, &methods::size(CtrMethod::Add(1))).unwrap();
    let put = m
        .app_method(t, &methods::hash_table(MapMethod::Put(1, 2)))
        .unwrap();
    m.push(t, put).unwrap();
    let x_inc = m
        .app_method(t, &methods::mem(MemMethod::Write(Loc(0), 1)))
        .unwrap();

    // Push HTM ops (out of local order relative to `put`: size_inc was
    // applied before put but is pushed after — PUSH criterion (i) is
    // satisfied through movers).
    m.push(t, size_inc).unwrap();
    m.push(t, x_inc).unwrap();
    assert_eq!(m.global().len(), 4);

    // HTM abort: UNPUSH the HTM ops only.
    m.unpush(t, x_inc).unwrap();
    m.unpush(t, size_inc).unwrap();
    // §7's central claim: the boosted effects remain in the shared view.
    assert!(m.global().contains_id(insert));
    assert!(m.global().contains_id(put));
    assert_eq!(m.global().len(), 2);

    // Partial rewind: only x++ is unapplied; size++ and the boosted ops
    // survive in the local log.
    m.unapp(t).unwrap();
    assert_eq!(m.thread(t).unwrap().local().len(), 3);

    // March forward down the other branch and commit.
    let y_inc = m
        .app_method(t, &methods::mem(MemMethod::Write(Loc(1), 1)))
        .unwrap();
    m.push(t, size_inc).unwrap();
    m.push(t, y_inc).unwrap();
    m.commit(t).unwrap();

    let report = check_machine(&m);
    assert!(report.is_serializable(), "{report}");

    // The committed transaction's operations, in local order:
    let ops = &m.committed_txns()[0].ops;
    let shown: Vec<String> = ops.iter().map(|o| format!("{:?}", o.method)).collect();
    assert_eq!(ops.len(), 4, "{shown:?}");
    assert_eq!(ops[0].id, insert);
    assert_eq!(ops[1].id, size_inc);
    assert_eq!(ops[2].id, put);
    assert_eq!(ops[3].id, y_inc);
}

/// An UNAPP of the x-write is refused while the write is still pushed —
/// the machine forces Figure 7's UNPUSH-before-UNAPP order.
#[test]
fn unapp_requires_unpush_first() {
    let mut m: Machine<MixedSpec> = Machine::new(mixed_spec());
    let t = m.add_thread(vec![Code::method(methods::mem(MemMethod::Write(
        Loc(0),
        1,
    )))]);
    let w = m.app_auto(t).unwrap();
    m.push(t, w).unwrap();
    assert!(m.unapp(t).is_err(), "pushed op cannot be unapplied");
    m.unpush(t, w).unwrap();
    m.unapp(t).unwrap();
}

/// Out-of-order UNPUSH: the HTM ops can be recalled in an order different
/// from their push order when the movers allow it (here: different words).
#[test]
fn out_of_order_unpush_is_admissible() {
    let mut m: Machine<MixedSpec> = Machine::new(mixed_spec());
    let t = m.add_thread(vec![Code::seq_all(vec![
        Code::method(methods::mem(MemMethod::Write(Loc(0), 1))),
        Code::method(methods::mem(MemMethod::Write(Loc(1), 1))),
    ])]);
    let a = m.app_auto(t).unwrap();
    let b = m.app_auto(t).unwrap();
    m.push(t, a).unwrap();
    m.push(t, b).unwrap();
    // Recall the FIRST-pushed op first (op `a`): its suffix in G contains
    // `b`, justified because wr(x0) slides past wr(x1).
    m.unpush(t, a).unwrap();
    m.unpush(t, b).unwrap();
    assert!(m.global().is_empty());
}

/// The generic mixed driver stays serializable across many random
/// interleavings of §7-shaped transactions.
#[test]
fn mixed_driver_serializable_under_random_interleavings() {
    for seed in 1..=25u64 {
        let prog = |k: u64, x: u32| {
            vec![Code::seq_all(vec![
                Code::method(methods::skiplist(SetMethod::Add(k))),
                Code::method(methods::size(CtrMethod::Add(1))),
                Code::method(methods::hash_table(MapMethod::Put(k, k as i64))),
                Code::method(methods::mem(MemMethod::Write(Loc(x), 1))),
            ])]
        };
        let mut sys = MixedSystem::new(mixed_spec(), vec![prog(1, 0), prog(2, 0), prog(3, 1)]);
        run(&mut sys, &mut RandomSched::new(seed), 400_000).unwrap();
        assert!(sys.is_done(), "seed {seed} did not finish");
        assert_eq!(sys.stats().commits, 3, "seed {seed}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "seed {seed}: {report}");
    }
}

/// §7's partial rewind, on the four programs `parallel_stress` runs on OS
/// threads: under round-robin every abort is an HTM abort resolved by
/// UNAPPing only the trailing HTM effects, so the boosted effects stay
/// pushed and the transaction resumes from them.
#[test]
fn round_robin_resolves_every_abort_by_partial_htm_rewind() {
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
    let mut sys = MixedSystem::new(mixed_spec(), programs);
    let out = run(&mut sys, &mut RoundRobin, 400_000).unwrap();
    assert!(out.completed, "wedged after {} ticks", out.ticks);
    let stats = sys.stats();
    assert_eq!(stats.commits, 4);
    assert!(sys.partial_htm_aborts() >= 1, "no partial rewind taken");
    assert_eq!(sys.partial_htm_aborts(), stats.aborts);
    let report = check_machine(sys.machine());
    assert!(report.is_serializable(), "{report}");
}

/// The committed `size` counter equals the number of committed
/// transactions that incremented it — the HTM word and the boosted
/// structures stay mutually consistent.
#[test]
fn size_counter_consistent_with_commits() {
    let prog = |k: u64| {
        vec![Code::seq_all(vec![
            Code::method(methods::skiplist(SetMethod::Add(k))),
            Code::method(methods::size(CtrMethod::Add(1))),
        ])]
    };
    let mut sys = MixedSystem::new(mixed_spec(), vec![prog(1), prog(2), prog(3), prog(4)]);
    run(&mut sys, &mut RandomSched::new(99), 400_000).unwrap();
    assert_eq!(sys.stats().commits, 4);
    let committed = sys.machine().global().committed_ops();
    let size_incs = committed
        .iter()
        .filter(|o| matches!(o.method, pushpull::spec::composite::Either::R(_)))
        .count();
    let inserts = committed.len() - size_incs;
    assert_eq!(size_incs, 4);
    assert_eq!(inserts, 4);
}
