//! Shared audit-ledger assertions for the test suites, and
//! the one spec wrapper they share ([`Redeclared`]).
//!
//! Two invariants recur across the fault suite and the sharding and
//! server equivalence suites; they live here so every caller asserts the
//! *same* property with the same diagnostics:
//!
//! * **Injection accounting**: the audit's `injected` tallies equal the
//!   fault plan's own fired tallies — every fault recorded once, none
//!   leaked into `violated`.
//! * **Ledger equality**: two runs reached and resolved the same
//!   criteria the same number of times (the per-obligation columns),
//!   independent of how many raw oracle *queries* each evaluation cost —
//!   the invariant log sharding and the incremental cache must preserve.
//!
//! The chaos-matrix driver loop itself also lives here
//! ([`assert_chaos_cell`]): arm a plan, drive the system to completion
//! under a seeded random scheduler, then assert completion, exact
//! injection accounting, and the safety oracles. Every fault family —
//! rule denials, kills/stalls, HTM aborts — runs its matrix rows through
//! this one loop.

use std::collections::BTreeMap;
use std::sync::Arc;

use pushpull_core::audit::CriteriaAudit;
use pushpull_core::faults::{FaultHook, FaultKind};
use pushpull_core::op::Op;
use pushpull_core::opacity::check_trace;
use pushpull_core::serializability::check_machine;
use pushpull_core::spec::{KeySet, OpInverse, Rets, SeqSpec};
use pushpull_tm::driver::TmSystem;

use crate::faults::FaultPlan;
use crate::scheduler::{run, RandomSched};

/// Asserts the audit's `injected` tallies equal a fault plan's fired
/// tallies: every injected fault was recorded exactly once, by kind.
///
/// # Panics
///
/// Panics with both tally maps rendered when they diverge.
pub fn assert_injection_accounted(audit: &CriteriaAudit, fired: &BTreeMap<FaultKind, u64>) {
    assert_eq!(
        &audit.injected,
        fired,
        "audit injected tallies diverge from the plan's fired tallies\n{}",
        audit.render()
    );
}

/// Asserts two audits agree on every *ledger* column — `discharged`,
/// `violated` and `injected`, per obligation —
/// while deliberately ignoring the raw `mover_queries`/`allowed_queries`
/// counters. Criteria *verdict* equality is exactly what log sharding
/// and the incremental prefix cache promise; what each verdict *cost* in
/// oracle queries is allowed to differ.
///
/// # Panics
///
/// Panics naming the first diverging column, with both audits rendered.
pub fn assert_ledger_matches(a: &CriteriaAudit, b: &CriteriaAudit) {
    let columns: [(&str, &BTreeMap<_, u64>, &BTreeMap<_, u64>); 2] = [
        ("discharged", &a.discharged, &b.discharged),
        ("violated", &a.violated, &b.violated),
    ];
    for (name, left, right) in columns {
        assert_eq!(
            left,
            right,
            "audit ledgers diverge in `{name}`\n--- left:\n{}\n--- right:\n{}",
            a.render(),
            b.render()
        );
    }
    assert_eq!(
        a.injected,
        b.injected,
        "audit ledgers diverge in `injected`\n--- left:\n{}\n--- right:\n{}",
        a.render(),
        b.render()
    );
}

/// Runs one chaos-matrix cell: arms `plan` on the machine, drives `sys`
/// to completion under `RandomSched::new(seed ^ 0xC0FF_EE00)` within
/// `budget` ticks, then asserts the three-part robustness contract —
/// **completion** (a faulted run still finishes), **accounting** (the
/// audit's `injected` tallies equal the plan's fired tallies exactly),
/// and **safety** (the serializability oracle, plus the opacity oracle
/// when `expect_opaque`). Returns the finished system so callers can
/// assert fault-family-specific extras.
///
/// Install any certificate or strict mode on the machine *before*
/// calling; this helper only arms the fault hook.
///
/// # Panics
///
/// Panics, prefixed with `label`, on any machine error, wedge, tally
/// divergence, or oracle violation.
pub fn assert_chaos_cell<T: TmSystem>(
    label: &str,
    mut sys: T,
    plan: &Arc<FaultPlan>,
    seed: u64,
    budget: usize,
    expect_opaque: bool,
) -> T {
    sys.machine()
        .set_fault_hook(Some(Arc::clone(plan) as Arc<dyn FaultHook>));
    let out = run(&mut sys, &mut RandomSched::new(seed ^ 0xC0FF_EE00), budget)
        .unwrap_or_else(|e| panic!("{label}/seed {seed}: machine error: {e}"));
    assert!(
        out.completed,
        "{label}/seed {seed}: wedged after {} ticks",
        out.ticks
    );
    let m = sys.machine();
    assert_injection_accounted(&m.audit(), &plan.fired());
    let report = check_machine(m);
    assert!(report.is_serializable(), "{label}/seed {seed}: {report}");
    if expect_opaque {
        let verdict = check_trace(&m.trace());
        assert!(
            verdict.is_opaque(),
            "{label}/seed {seed}: faulted run lost opacity"
        );
    }
    sys
}

/// `inner` with its footprints re-declared by `keys` — every other answer
/// is the inner spec's. What a test needs to put a *key-less mutator* in
/// front of the footprint-filtered refresh (declare `None` for a method
/// that has a key: sound, just coarser), or a *lie* (declare a key the
/// method does not touch: unsound for routing, which is why strict mode
/// asks for a certificate — and harmless for the refresh, which elides no
/// criterion). A lie is not harmless to the lock-based drivers, which lock
/// the declared footprint; the certifier refutes it over the inner spec's
/// bounded universes, which the wrapper hands on.
#[derive(Debug, Clone)]
pub struct Redeclared<S: SeqSpec> {
    /// The specification every answer but the footprint comes from.
    pub inner: S,
    /// The footprint declared in its place.
    pub keys: fn(&S::Method) -> Option<KeySet>,
}

impl<S: SeqSpec> SeqSpec for Redeclared<S> {
    type Method = S::Method;
    type Ret = S::Ret;
    type State = S::State;

    fn initial_states(&self) -> Vec<S::State> {
        self.inner.initial_states()
    }

    fn apply(&self, state: &mut S::State, method: &S::Method, ret: &S::Ret) -> bool {
        self.inner.apply(state, method, ret)
    }

    fn results(&self, state: &S::State, method: &S::Method) -> Rets<S::Ret> {
        self.inner.results(state, method)
    }

    fn state_universe(&self) -> Option<Vec<S::State>> {
        self.inner.state_universe()
    }

    fn mover(&self, op1: &Op<S::Method, S::Ret>, op2: &Op<S::Method, S::Ret>) -> bool {
        self.inner.mover(op1, op2)
    }

    fn method_mover(&self, m1: &S::Method, m2: &S::Method) -> Option<bool> {
        self.inner.method_mover(m1, m2)
    }

    fn method_keys(&self, m: &S::Method) -> Option<KeySet> {
        (self.keys)(m)
    }

    fn method_universe(&self) -> Option<Vec<S::Method>> {
        self.inner.method_universe()
    }

    fn inverse(&self, op: &Op<S::Method, S::Ret>) -> OpInverse<S::Method, S::Ret> {
        self.inner.inverse(op)
    }

    fn has_inverses(&self) -> bool {
        self.inner.has_inverses()
    }
}
