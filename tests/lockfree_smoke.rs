//! Lock-free hot-path smoke: the observability counters must *prove*
//! the seqlock fast path is what DESIGN.md §10 claims it is.
//!
//! The tentpole property: a **read-only criteria check on a declared
//! disjoint footprint takes zero shard-lock acquisitions** — it runs
//! entirely against the shard's published [`SnapCell`] snapshot. The
//! optimistic PUSH itself still takes exactly one lock (the append must
//! serialize), but its criteria window runs lock-free. And the fallback
//! ladder must stay honest: sticky-coarse mode (an op with no declared
//! footprint at shard count > 1) disables the fast path without
//! changing any verdict.
//!
//! Everything here is single-threaded and deterministic, so the lock
//! and seqlock counters have exact expected values rather than bounds.
//!
//! [`SnapCell`]: pushpull::core::snapcell::SnapCell

use pushpull::core::lang::Code;
use pushpull::core::machine::{CheckMode, Machine};
use pushpull::core::toy::{CounterMethod, ToyCounter};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};

/// A 4-shard memory machine with one committed write on `Loc(0)`
/// (shard 0) by thread A, and thread B holding an un-pushed op on
/// `Loc(1)` (shard 1) — the disjoint-footprint configuration.
fn disjoint_setup(b_method: MemMethod) -> (Machine<RwMem>, pushpull::core::op::OpId) {
    let mut m = Machine::new(RwMem::new());
    let ta = m.add_thread(vec![Code::method(MemMethod::Write(Loc(0), 7))]);
    let tb = m.add_thread(vec![Code::method(b_method)]);
    m.set_log_shards(4);
    let w = m.app_auto(ta).expect("app A");
    m.push(ta, w).expect("push A");
    m.commit(ta).expect("commit A");
    let op = m.app_auto(tb).expect("app B");
    (m, op)
}

const TB: pushpull::core::op::ThreadId = pushpull::core::op::ThreadId(1);

#[test]
fn readonly_disjoint_check_takes_zero_locks() {
    let (m, op) = disjoint_setup(MemMethod::Read(Loc(1)));

    let (acq_before, _) = m.lock_stats();
    let (reads_before, _, fb_before) = m.seqlock_stats();
    let audit_before = m.audit();
    for _ in 0..100 {
        assert!(
            m.can_push(TB, op).expect("well-formed op"),
            "disjoint read is pushable"
        );
    }
    let (acq_after, _) = m.lock_stats();
    let (reads_after, _, fb_after) = m.seqlock_stats();

    assert_eq!(
        acq_after, acq_before,
        "read-only disjoint criteria checks must take zero shard locks"
    );
    assert_eq!(
        reads_after,
        reads_before + 100,
        "every check must be served by the snapshot"
    );
    assert_eq!(fb_after, fb_before, "no check may fall back to the mutex");
    assert_eq!(
        m.audit(),
        audit_before,
        "can_push is unaudited — it must not move the criteria ledger"
    );
}

#[test]
fn disjoint_push_locks_only_for_the_append() {
    let (mut m, op) = disjoint_setup(MemMethod::Write(Loc(1), 9));

    let (acq_before, _) = m.lock_stats();
    let (reads_before, _, fb_before) = m.seqlock_stats();
    m.push(TB, op).expect("push B");
    let (acq_after, _) = m.lock_stats();
    let (reads_after, _, fb_after) = m.seqlock_stats();

    assert_eq!(
        acq_after,
        acq_before + 1,
        "optimistic PUSH takes exactly one lock: the append itself"
    );
    assert_eq!(
        reads_after,
        reads_before + 1,
        "the criteria window ran against the snapshot"
    );
    assert_eq!(
        fb_after, fb_before,
        "a fresh single-threaded snapshot never goes stale"
    );
    m.commit(TB).expect("commit B");
}

#[test]
fn can_push_agrees_with_push_verdicts() {
    // Bound-1 counter: after A's committed inc, B's inc is denotationally
    // disallowed — can_push must predict the PUSH (iii) rejection.
    let mut m = Machine::new(ToyCounter::with_bound(1));
    let ta = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    let tb = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    let a = m.app_auto(ta).expect("app A");
    m.push(ta, a).expect("push A");
    m.commit(ta).expect("commit A");

    let b = m.app_auto(tb).expect("app B");
    assert!(!m.can_push(tb, b).expect("well-formed op"));
    assert!(
        m.push(tb, b).is_err(),
        "push must agree with the prediction"
    );

    // Bound-2 counter, same shape: now both verdicts flip to true.
    let mut m = Machine::new(ToyCounter::with_bound(2));
    let ta = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    let tb = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    let a = m.app_auto(ta).expect("app A");
    m.push(ta, a).expect("push A");
    m.commit(ta).expect("commit A");

    let b = m.app_auto(tb).expect("app B");
    assert!(m.can_push(tb, b).expect("well-formed op"));
    m.push(tb, b).expect("push must agree with the prediction");
    m.commit(tb).expect("commit B");

    // Bound-1 again, but `Unchecked`: PUSH skips its criteria there, so
    // it accepts B's inc — and can_push, behind the same gate, says so.
    let mut m = Machine::with_mode(ToyCounter::with_bound(1), CheckMode::Unchecked);
    let ta = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    let tb = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    let a = m.app_auto(ta).expect("app A");
    m.push(ta, a).expect("push A");
    m.commit(ta).expect("commit A");

    let b = m.app_auto(tb).expect("app B");
    assert!(m.can_push(tb, b).expect("well-formed op"));
    m.push(tb, b).expect("push must agree with the prediction");
}

#[test]
fn sticky_coarse_disables_the_fast_path_without_changing_verdicts() {
    // `Size` declares no footprint; pushing it at shard count 4 trips the
    // sticky-coarse rung of the fallback ladder. From then on criteria
    // checks must take locks (the snapshot path is disabled) while the
    // verdicts stay exactly what the coarse whole-log evaluation gives.
    let mut m = Machine::new(KvMap::new());
    let ta = m.add_thread(vec![Code::method(MapMethod::Size)]);
    let tb = m.add_thread(vec![Code::method(MapMethod::Put(3, 30))]);
    m.set_log_shards(4);

    let size = m.app_auto(ta).expect("app size");
    m.push(ta, size).expect("push size");
    m.commit(ta).expect("commit size");

    let put = m.app_auto(tb).expect("app put");
    let (acq_before, _) = m.lock_stats();
    let (reads_before, _, _) = m.seqlock_stats();
    assert!(m.can_push(tb, put).expect("well-formed op"));
    let (acq_after, _) = m.lock_stats();
    let (reads_after, _, _) = m.seqlock_stats();

    assert!(
        acq_after > acq_before,
        "coarse mode must route the check through the locked ladder"
    );
    assert_eq!(
        reads_after, reads_before,
        "no snapshot read may be served in coarse mode"
    );
    m.push(tb, put).expect("push put");
    m.commit(tb).expect("commit put");
}
