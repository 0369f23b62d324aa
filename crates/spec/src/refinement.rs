//! The §6.1 opacity-refinement oracle, generically.
//!
//! §6.1: "An active transaction T may PULL an operation m′ that is due
//! to an uncommitted transaction T′ provided that T will never execute a
//! method m that does not commute with m′." Deciding that requires a
//! *method-level* commutation judgement — quantifying over every return
//! value an invocation of `m` could produce. For bounded specifications
//! this module derives that judgement from the state universe; drivers
//! and the opacity checker consume it as a closure.

use std::collections::HashSet;

use pushpull_core::op::{Op, OpId, TxnId};
use pushpull_core::spec::{commute, SeqSpec};

/// All return values `method` can produce anywhere in the specification's
/// state universe.
///
/// Returns `None` for unbounded specifications (no universe to quantify
/// over).
fn possible_rets<S: SeqSpec>(spec: &S, method: &S::Method) -> Option<Vec<S::Ret>> {
    let universe = spec.state_universe()?;
    let mut out: Vec<S::Ret> = Vec::new();
    let mut seen: HashSet<S::Ret> = HashSet::new();
    for s in &universe {
        for r in spec.results(s, method) {
            if seen.insert(r.clone()) {
                out.push(r);
            }
        }
    }
    Some(out)
}

/// Does *every possible invocation* of `method` commute (both mover
/// directions) with the concrete operation `op`? Conservatively `false`
/// for unbounded specifications.
///
/// # Examples
///
/// ```
/// use pushpull_spec::counter::{Counter, CtrMethod};
/// use pushpull_spec::refinement::method_commutes_with_op;
/// use pushpull_core::op::{Op, OpId, TxnId};
/// use pushpull_spec::counter::CtrRet;
///
/// let spec = Counter::with_universe(6);
/// let pulled = Op::new(OpId(0), TxnId(0), CtrMethod::Add(1), CtrRet::Ack);
/// // Any Add commutes with the pulled Add; a Get never does.
/// assert!(method_commutes_with_op(&spec, &CtrMethod::Add(3), &pulled));
/// assert!(!method_commutes_with_op(&spec, &CtrMethod::Get, &pulled));
/// ```
pub fn method_commutes_with_op<S: SeqSpec>(
    spec: &S,
    method: &S::Method,
    op: &Op<S::Method, S::Ret>,
) -> bool {
    let Some(rets) = possible_rets(spec, method) else {
        return false;
    };
    rets.iter().all(|r| {
        let candidate = Op::new(
            OpId(u64::MAX - 1),
            TxnId(u64::MAX),
            method.clone(),
            r.clone(),
        );
        commute(spec, &candidate, op)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{ops as cops, Counter, CtrMethod, CtrRet};
    use crate::set::{ops as sops, SetMethod, SetSpec};

    #[test]
    fn possible_rets_enumerates_universe_observations() {
        let spec = Counter::with_universe(2);
        let rets = possible_rets(&spec, &CtrMethod::Get).unwrap();
        assert_eq!(rets.len(), 5); // -2..=2
        let rets = possible_rets(&spec, &CtrMethod::Add(1)).unwrap();
        assert_eq!(rets, vec![CtrRet::Ack]);
    }

    #[test]
    fn unbounded_specs_are_conservative() {
        let spec = Counter::new();
        let pulled = cops::add(0, 0, 1);
        assert!(!method_commutes_with_op(&spec, &CtrMethod::Add(1), &pulled));
    }

    #[test]
    fn set_refinement_by_element() {
        let spec = SetSpec::bounded(vec![1, 2]);
        let pulled = sops::add(0, 0, 1, true);
        // Methods on the other element commute with the pulled add…
        assert!(method_commutes_with_op(&spec, &SetMethod::Add(2), &pulled));
        assert!(method_commutes_with_op(
            &spec,
            &SetMethod::Contains(2),
            &pulled
        ));
        // …same-element methods do not.
        assert!(!method_commutes_with_op(
            &spec,
            &SetMethod::Contains(1),
            &pulled
        ));
        assert!(!method_commutes_with_op(&spec, &SetMethod::Add(1), &pulled));
    }

    #[test]
    fn counter_adds_commute_with_a_pulled_add() {
        let spec = Counter::with_universe(4);
        let pulled = cops::add(0, 0, 2);
        assert!(method_commutes_with_op(&spec, &CtrMethod::Add(5), &pulled));
        assert!(!method_commutes_with_op(&spec, &CtrMethod::Get, &pulled));
    }
}
