//! A mathematical set — the "shared Set, implemented as a
//! ConcurrentSkipList" that Figure 2's boosted hashtable stores, and the
//! canonical example of transactional boosting \[11\]: `add(x)` and
//! `add(y)` commute whenever `x ≠ y`.

use std::collections::BTreeSet;
use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, OpInverse, Rets, SeqSpec};

/// Set elements.
pub type Elem = u64;

/// Methods of the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetMethod {
    /// Insert an element; observes whether it was newly added.
    Add(Elem),
    /// Remove an element; observes whether it was present.
    Remove(Elem),
    /// Membership test.
    Contains(Elem),
}

impl SetMethod {
    /// The element this method touches.
    #[inline]
    pub fn elem(&self) -> Elem {
        match self {
            SetMethod::Add(x) | SetMethod::Remove(x) | SetMethod::Contains(x) => *x,
        }
    }

    /// Is this a read-only method?
    #[inline]
    pub fn is_read(&self) -> bool {
        matches!(self, SetMethod::Contains(_))
    }
}

impl fmt::Display for SetMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetMethod::Add(x) => write!(f, "add({x})"),
            SetMethod::Remove(x) => write!(f, "remove({x})"),
            SetMethod::Contains(x) => write!(f, "contains({x})"),
        }
    }
}

/// Return values of the set (all boolean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetRet(pub bool);

/// Set state.
pub type SetState = BTreeSet<Elem>;

/// Operation records of the set.
pub type SetOp = Op<SetMethod, SetRet>;

/// The set specification.
///
/// # Examples
///
/// ```
/// use pushpull_spec::set::{SetSpec, ops};
/// use pushpull_core::spec::SeqSpec;
///
/// let spec = SetSpec::new();
/// // Boosting's bread and butter: distinct-element adds commute.
/// assert!(spec.mover(&ops::add(0, 0, 1, true), &ops::add(1, 1, 2, true)));
/// // Same element: an add does not move across a contains that saw it.
/// assert!(!spec.mover(&ops::add(0, 0, 1, true), &ops::contains(1, 1, 1, true)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSpec {
    bound: Option<Vec<Elem>>,
}

impl SetSpec {
    /// An unbounded set (algebraic movers only).
    pub fn new() -> Self {
        Self { bound: None }
    }

    /// A bounded set over the given elements, with a finite state universe
    /// (every subset) for exhaustive cross-checks.
    pub fn bounded(elems: Vec<Elem>) -> Self {
        Self { bound: Some(elems) }
    }
}

impl Default for SetSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for SetSpec {
    type Method = SetMethod;
    type Ret = SetRet;
    type State = SetState;

    #[inline]
    fn initial_states(&self) -> Vec<SetState> {
        vec![SetState::new()]
    }

    #[inline]
    fn apply(&self, state: &mut SetState, method: &SetMethod, ret: &SetRet) -> bool {
        match method {
            // `Add` observes whether the element was newly added.
            SetMethod::Add(x) if ret.0 != state.contains(x) => {
                state.insert(*x);
            }
            SetMethod::Remove(x) if ret.0 == state.contains(x) => {
                state.remove(x);
            }
            SetMethod::Contains(x) if ret.0 == state.contains(x) => {}
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &SetState, method: &SetMethod) -> Rets<SetRet> {
        Rets::one(match method {
            SetMethod::Add(x) => SetRet(!state.contains(x)),
            SetMethod::Remove(x) | SetMethod::Contains(x) => SetRet(state.contains(x)),
        })
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<SetState>> {
        let elems = self.bound.as_ref()?;
        let mut states = vec![SetState::new()];
        for x in elems {
            let mut next = Vec::new();
            for s in &states {
                next.push(s.clone());
                let mut s2 = s.clone();
                s2.insert(*x);
                next.push(s2);
            }
            states = next;
        }
        Some(states)
    }

    #[inline]
    fn mover(&self, op1: &SetOp, op2: &SetOp) -> bool {
        if op1.method.elem() != op2.method.elem() {
            return true;
        }
        op1.method.is_read() && op2.method.is_read()
    }

    #[inline]
    fn method_mover(&self, m1: &SetMethod, m2: &SetMethod) -> Option<bool> {
        // The op-level oracle never looks at returns: exact at the
        // method level.
        Some(m1.elem() != m2.elem() || (m1.is_read() && m2.is_read()))
    }

    /// Footprint: the touched element — distinct elements are
    /// both-movers (first disjunct of `method_mover`).
    #[inline]
    fn method_keys(&self, m: &SetMethod) -> Option<KeySet> {
        Some(KeySet::one(m.elem()))
    }

    /// Every method on every bounded element.
    #[inline]
    fn method_universe(&self) -> Option<Vec<SetMethod>> {
        let elems = self.bound.as_ref()?;
        let mut ms = Vec::new();
        for x in elems {
            ms.push(SetMethod::Add(*x));
            ms.push(SetMethod::Remove(*x));
            ms.push(SetMethod::Contains(*x));
        }
        Some(ms)
    }

    /// A successful `add` is undone by `remove` (and vice versa); failed
    /// updates and `contains` leave the state untouched.
    #[inline]
    fn inverse(&self, op: &SetOp) -> OpInverse<SetMethod, SetRet> {
        match (op.method, op.ret) {
            (SetMethod::Add(x), SetRet(true)) => {
                OpInverse::Inverse(SetMethod::Remove(x), SetRet(true))
            }
            (SetMethod::Remove(x), SetRet(true)) => {
                OpInverse::Inverse(SetMethod::Add(x), SetRet(true))
            }
            _ => OpInverse::ReadOnly,
        }
    }

    #[inline]
    fn has_inverses(&self) -> bool {
        true
    }
}

/// Convenience constructors for set operations.
pub mod ops {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};

    /// An `Add(x)` observing `added`.
    pub fn add(id: u64, txn: u64, x: Elem, added: bool) -> SetOp {
        Op::new(OpId(id), TxnId(txn), SetMethod::Add(x), SetRet(added))
    }

    /// A `Remove(x)` observing `present`.
    pub fn remove(id: u64, txn: u64, x: Elem, present: bool) -> SetOp {
        Op::new(OpId(id), TxnId(txn), SetMethod::Remove(x), SetRet(present))
    }

    /// A `Contains(x)` observing `present`.
    pub fn contains(id: u64, txn: u64, x: Elem, present: bool) -> SetOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            SetMethod::Contains(x),
            SetRet(present),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::ops as o;
    use super::*;
    use pushpull_core::spec::mover_exhaustive;

    #[test]
    fn add_remove_contains_sequence() {
        let spec = SetSpec::new();
        let log = vec![
            o::add(0, 0, 5, true),
            o::add(1, 0, 5, false),
            o::contains(2, 0, 5, true),
            o::remove(3, 0, 5, true),
            o::contains(4, 0, 5, false),
        ];
        assert!(spec.allowed(&log));
    }

    #[test]
    fn rets_are_forced_by_state() {
        let spec = SetSpec::new();
        assert!(
            !spec.allowed(&[o::add(0, 0, 5, false)]),
            "first add must return true"
        );
        assert!(
            !spec.allowed(&[o::remove(0, 0, 5, true)]),
            "remove from empty must return false"
        );
    }

    #[test]
    fn distinct_elements_commute() {
        let spec = SetSpec::new();
        assert!(spec.mover(&o::add(0, 0, 1, true), &o::remove(1, 1, 2, false)));
    }

    #[test]
    fn algebraic_movers_sound_wrt_exhaustive() {
        let spec = SetSpec::bounded(vec![1, 2]);
        let universe = spec.state_universe().unwrap();
        assert_eq!(universe.len(), 4);
        let mut sample = Vec::new();
        let mut id = 0;
        for x in [1u64, 2] {
            for b in [true, false] {
                sample.push(o::add(id, 0, x, b));
                id += 1;
                sample.push(o::remove(id, 0, x, b));
                id += 1;
                sample.push(o::contains(id, 0, x, b));
                id += 1;
            }
        }
        for a in &sample {
            for b in &sample {
                if spec.mover(a, b) {
                    assert!(
                        mover_exhaustive(&spec, &universe, a, b),
                        "unsound mover {:?} vs {:?}",
                        a.method,
                        b.method
                    );
                }
            }
        }
    }
}
