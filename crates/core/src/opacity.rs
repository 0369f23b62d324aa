//! Opacity as a fragment of PUSH/PULL (paper §6.1).
//!
//! General PUSH/PULL transactions are *not* opaque [Guerraoui & Kapalka]:
//! a transaction may PULL the uncommitted effects of another. The paper
//! identifies two opaque fragments:
//!
//! 1. **No uncommitted pulls** — if transactions never PULL an operation
//!    whose global flag is `gUCmt`, the run is opaque. [`check_trace`]
//!    decides this syntactically on the recorded trace.
//! 2. **Commutativity refinement** — a transaction `T` *may* PULL an
//!    uncommitted `m′` of `T′` provided `T` will never execute a method
//!    that does not commute with `m′` ("examining, statically or
//!    dynamically, the set of all reachable operations"). Each PULL event
//!    records the puller's reachable methods at pull time, so
//!    [`check_trace_refined`] decides this given a commutation oracle for
//!    (method, pulled operation) pairs.
//!
//! Note the checkers classify *runs*; an algorithm is opaque when all its
//! runs are (which the harness's model checker establishes for small
//! configurations).

use crate::log::GlobalFlag;
use crate::op::{Op, OpId, ThreadId};
use crate::trace::{Event, Trace};

/// Outcome of an opacity check on one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpacityVerdict {
    /// No uncommitted effect was ever pulled: the run lies in the opaque
    /// fragment of §6.1.
    Opaque,
    /// Uncommitted effects were pulled, but each pull is covered by the
    /// commutativity refinement: all methods the puller could still
    /// perform commute with the pulled operation.
    OpaqueByCommutativity,
    /// The run leaves the opaque fragment; each violation names the
    /// pulling thread and the pulled operation.
    NotOpaque {
        /// (puller, pulled operation) pairs that violate opacity.
        violations: Vec<(ThreadId, OpId)>,
    },
}

impl OpacityVerdict {
    /// Is the run opaque (under either fragment)?
    pub fn is_opaque(&self) -> bool {
        !matches!(self, OpacityVerdict::NotOpaque { .. })
    }
}

/// Classifies a trace against the plain fragment: opaque iff no PULL ever
/// imported an operation that was uncommitted at pull time.
///
/// # Examples
///
/// ```
/// use pushpull_core::machine::Machine;
/// use pushpull_core::lang::Code;
/// use pushpull_core::toy::{ToyCounter, CounterMethod};
/// use pushpull_core::opacity::{check_trace, OpacityVerdict};
///
/// let mut m = Machine::new(ToyCounter::with_bound(8));
/// let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
/// let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
/// let ia = m.app_auto(a)?;
/// m.push(a, ia)?;
/// m.commit(a)?;
/// m.pull_all_committed(b)?; // pulls a *committed* effect: opaque
/// assert_eq!(check_trace(&m.trace()), OpacityVerdict::Opaque);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub fn check_trace<M, R>(trace: &Trace<M, R>) -> OpacityVerdict {
    let violations: Vec<(ThreadId, OpId)> = trace
        .iter()
        .filter_map(|e| match e {
            Event::Pull {
                thread,
                op,
                status_at_pull: GlobalFlag::Uncommitted,
                ..
            } => Some((*thread, *op)),
            _ => None,
        })
        .collect();
    if violations.is_empty() {
        OpacityVerdict::Opaque
    } else {
        OpacityVerdict::NotOpaque { violations }
    }
}

/// Classifies a trace against the commutativity-refined fragment.
///
/// `commutes(method, pulled_op_id, pulled_method)` must answer whether an
/// invocation of `method` (any arguments/results the puller could produce)
/// commutes with the pulled operation. The `pushpull-spec` crate provides
/// such oracles for its specifications.
pub fn check_trace_refined<M, R>(
    trace: &Trace<M, R>,
    mut commutes: impl FnMut(&M, OpId, &M) -> bool,
) -> OpacityVerdict {
    let mut uncommitted_pulls = 0usize;
    let mut violations = Vec::new();
    for e in trace.iter() {
        if let Event::Pull {
            thread,
            op,
            status_at_pull: GlobalFlag::Uncommitted,
            method,
            reachable_after,
            ..
        } = e
        {
            uncommitted_pulls += 1;
            if !reachable_after.iter().all(|m| commutes(m, *op, method)) {
                violations.push((*thread, *op));
            }
        }
    }
    if !violations.is_empty() {
        OpacityVerdict::NotOpaque { violations }
    } else if uncommitted_pulls > 0 {
        OpacityVerdict::OpaqueByCommutativity
    } else {
        OpacityVerdict::Opaque
    }
}

/// Snapshot-consistency check, the semantic core of opacity: every
/// committed *and aborted* transaction attempt must only ever have held an
/// `allowed` local log. The checked machine enforces this through APP/PULL
/// criteria; this function re-verifies it for unchecked runs by replaying
/// the trace's per-thread APP observations.
///
/// Returns the threads whose observation history was inconsistent with
/// *some* serial state, i.e. could not be produced by any prefix of
/// their own local log. (A coarse but useful diagnostic for unchecked
/// executions; checked executions always pass by construction.)
pub fn inconsistent_observers<S, M, R>(spec: &S, trace: &Trace<M, R>) -> Vec<ThreadId>
where
    S: crate::spec::SeqSpec<Method = M, Ret = R>,
    M: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    R: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    use std::collections::HashMap;
    // Reconstruct each transaction attempt's local observation log from
    // the trace and check allowedness at every prefix.
    let mut local: HashMap<ThreadId, Vec<Op<M, R>>> = HashMap::new();
    let mut bad: Vec<ThreadId> = Vec::new();
    for e in trace.iter() {
        match e {
            Event::Begin { thread, .. }
            | Event::Commit { thread, .. }
            | Event::Abort { thread, .. } => {
                local.remove(thread);
            }
            Event::App {
                thread,
                op,
                method,
                ret,
            } => {
                let l = local.entry(*thread).or_default();
                l.push(Op::new(
                    *op,
                    crate::op::TxnId(0),
                    method.clone(),
                    ret.clone(),
                ));
                if !spec.allowed(l) && !bad.contains(thread) {
                    bad.push(*thread);
                }
            }
            Event::Pull {
                thread,
                op,
                method,
                ret,
                ..
            } => {
                let l = local.entry(*thread).or_default();
                l.push(Op::new(
                    *op,
                    crate::op::TxnId(0),
                    method.clone(),
                    ret.clone(),
                ));
            }
            Event::UnApp { thread, .. } => {
                if let Some(l) = local.get_mut(thread) {
                    l.pop();
                }
            }
            Event::UnPull { thread, op, .. } => {
                if let Some(l) = local.get_mut(thread) {
                    l.retain(|o| o.id != *op);
                }
            }
            _ => {}
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Code;
    use crate::machine::Machine;
    use crate::toy::{CounterMethod, ToyCounter};

    #[test]
    fn committed_pull_is_opaque() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        m.pull_all_committed(b).unwrap();
        assert_eq!(check_trace(&m.trace()), OpacityVerdict::Opaque);
    }

    #[test]
    fn uncommitted_pull_breaks_plain_fragment() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap();
        match check_trace(&m.trace()) {
            OpacityVerdict::NotOpaque { violations } => {
                assert_eq!(violations.len(), 1);
                assert_eq!(violations[0].1, ia);
            }
            other => panic!("expected NotOpaque, got {other:?}"),
        }
    }

    #[test]
    fn refinement_admits_commuting_remainder() {
        // Puller's remaining code is inc-only; inc commutes with the
        // pulled inc, so the refined fragment admits the pull.
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap();
        let verdict = check_trace_refined(&m.trace(), |method, _, pulled| {
            matches!(
                (method, pulled),
                (CounterMethod::Inc, CounterMethod::Inc) | (CounterMethod::Dec, CounterMethod::Inc)
            )
        });
        assert_eq!(verdict, OpacityVerdict::OpaqueByCommutativity);
    }

    #[test]
    fn refinement_rejects_noncommuting_remainder() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap();
        let verdict = check_trace_refined(&m.trace(), |method, _, _| {
            !matches!(method, CounterMethod::Get)
        });
        assert!(!verdict.is_opaque());
    }

    #[test]
    fn checked_runs_have_no_inconsistent_observers() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![Code::seq(
            Code::method(CounterMethod::Inc),
            Code::method(CounterMethod::Get),
        )]);
        m.app_auto(a).unwrap();
        m.app_auto(a).unwrap();
        m.push_all_and_commit(a).unwrap();
        assert!(inconsistent_observers(m.spec(), &m.trace()).is_empty());
    }
}
