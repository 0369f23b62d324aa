//! An unbounded commutative counter — the simplest abstract-conflict
//! specification (e.g. the `size` field of §7's example, boosted rather
//! than tracked at memory level).
//!
//! `Add(k)` observes an ack, so additions commute with each other
//! regardless of `k` — the abstract-level commutativity that transactional
//! boosting \[11\] exploits and a read/write-level system would miss
//! (every `size++` is a read-modify-write conflict at memory level).

use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, OpInverse, Rets, SeqSpec};

/// Methods of the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtrMethod {
    /// Add `k` (may be negative); observes an ack.
    Add(i64),
    /// Read the current value.
    Get,
}

impl fmt::Display for CtrMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrMethod::Add(k) => write!(f, "add({k})"),
            CtrMethod::Get => write!(f, "get"),
        }
    }
}

/// Return values of the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtrRet {
    /// Acknowledgement of an `Add`.
    Ack,
    /// Value observed by a `Get`.
    Val(i64),
}

/// Operation records of the counter.
pub type CtrOp = Op<CtrMethod, CtrRet>;

/// The unbounded counter specification.
///
/// # Examples
///
/// ```
/// use pushpull_spec::counter::{Counter, ops};
/// use pushpull_core::spec::SeqSpec;
///
/// let spec = Counter::new();
/// let log = vec![ops::add(0, 0, 5), ops::add(1, 1, -2), ops::get(2, 0, 3)];
/// assert!(spec.allowed(&log));
/// // Adds commute:
/// assert!(spec.mover(&ops::add(0, 0, 5), &ops::add(1, 1, 7)));
/// // A get does not move across an add that changes what it saw:
/// assert!(!spec.mover(&ops::get(0, 0, 0), &ops::add(1, 1, 7)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    bounded: Option<i64>,
}

impl Counter {
    /// An unbounded counter.
    pub fn new() -> Self {
        Self { bounded: None }
    }

    /// A counter whose state universe is `-bound..=bound`, enabling
    /// exhaustive mover cross-validation.
    pub fn with_universe(bound: i64) -> Self {
        Self {
            bounded: Some(bound),
        }
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for Counter {
    type Method = CtrMethod;
    type Ret = CtrRet;
    type State = i64;

    #[inline]
    fn initial_states(&self) -> Vec<i64> {
        vec![0]
    }

    #[inline]
    fn apply(&self, state: &mut i64, method: &CtrMethod, ret: &CtrRet) -> bool {
        match (method, ret) {
            (CtrMethod::Add(k), CtrRet::Ack) => *state += k,
            (CtrMethod::Get, CtrRet::Val(v)) if *v == *state => {}
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &i64, method: &CtrMethod) -> Rets<CtrRet> {
        Rets::one(match method {
            CtrMethod::Add(_) => CtrRet::Ack,
            CtrMethod::Get => CtrRet::Val(*state),
        })
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<i64>> {
        self.bounded.map(|b| (-b..=b).collect())
    }

    #[inline]
    fn mover(&self, op1: &CtrOp, op2: &CtrOp) -> bool {
        match (&op1.method, &op2.method) {
            // Adds commute with adds.
            (CtrMethod::Add(_), CtrMethod::Add(_)) => true,
            // Gets commute with gets.
            (CtrMethod::Get, CtrMethod::Get) => true,
            // Get(v) ◁ Add(k): only when k == 0.
            (CtrMethod::Get, CtrMethod::Add(k)) => *k == 0,
            // Add(k) ◁ Get(v): swapping means the get sees v without the
            // add; holds only when k == 0 (otherwise the forward
            // composition pins a different value than the hypothetical).
            (CtrMethod::Add(k), CtrMethod::Get) => *k == 0,
        }
    }

    #[inline]
    fn method_mover(&self, m1: &CtrMethod, m2: &CtrMethod) -> Option<bool> {
        // The op-level oracle above never looks at returns, so it *is*
        // the method-level relation.
        Some(match (m1, m2) {
            (CtrMethod::Add(_), CtrMethod::Add(_)) => true,
            (CtrMethod::Get, CtrMethod::Get) => true,
            (CtrMethod::Get, CtrMethod::Add(k)) | (CtrMethod::Add(k), CtrMethod::Get) => *k == 0,
        })
    }

    /// Footprint: every method touches the one shared tally — a single
    /// key class, so a sharded log keeps all counter traffic together
    /// (the disjointness law is vacuous).
    #[inline]
    fn method_keys(&self, _m: &CtrMethod) -> Option<KeySet> {
        Some(KeySet::one(0))
    }

    /// Small positive, negative, and zero increments (the zero arm is
    /// the `method_mover` special case) plus the read.
    #[inline]
    fn method_universe(&self) -> Option<Vec<CtrMethod>> {
        self.bounded?;
        Some(vec![
            CtrMethod::Add(0),
            CtrMethod::Add(1),
            CtrMethod::Add(-1),
            CtrMethod::Add(2),
            CtrMethod::Get,
        ])
    }

    /// `Add(k)` is undone by `Add(-k)` (the counter is unsaturated, so
    /// every add is invertible); `Get` and `Add(0)` change nothing.
    #[inline]
    fn inverse(&self, op: &CtrOp) -> OpInverse<CtrMethod, CtrRet> {
        match op.method {
            CtrMethod::Add(k) if k != 0 => OpInverse::Inverse(CtrMethod::Add(-k), CtrRet::Ack),
            _ => OpInverse::ReadOnly,
        }
    }

    #[inline]
    fn has_inverses(&self) -> bool {
        true
    }
}

/// Convenience constructors for counter operations.
pub mod ops {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};

    /// An `Add(k)` operation.
    pub fn add(id: u64, txn: u64, k: i64) -> CtrOp {
        Op::new(OpId(id), TxnId(txn), CtrMethod::Add(k), CtrRet::Ack)
    }

    /// A `Get` operation observing `v`.
    pub fn get(id: u64, txn: u64, v: i64) -> CtrOp {
        Op::new(OpId(id), TxnId(txn), CtrMethod::Get, CtrRet::Val(v))
    }
}

#[cfg(test)]
mod tests {
    use super::ops::{add, get};
    use super::*;
    use pushpull_core::spec::mover_exhaustive;

    #[test]
    fn adds_accumulate() {
        let spec = Counter::new();
        assert!(spec.allowed(&[add(0, 0, 2), add(1, 0, 3), get(2, 0, 5)]));
        assert!(!spec.allowed(&[add(0, 0, 2), get(1, 0, 3)]));
    }

    #[test]
    fn algebraic_movers_sound_wrt_exhaustive() {
        let spec = Counter::with_universe(6);
        let universe = spec.state_universe().unwrap();
        let mut sample: Vec<CtrOp> = vec![add(0, 0, 0), add(1, 0, 1), add(2, 0, -2)];
        for v in -2..=2 {
            sample.push(get(10 + (v + 2) as u64, 0, v));
        }
        for a in &sample {
            for b in &sample {
                if spec.mover(a, b) {
                    assert!(
                        mover_exhaustive(&spec, &universe, a, b),
                        "algebraic claimed mover for {:?} vs {:?} but exhaustive refutes",
                        a.method,
                        b.method
                    );
                }
            }
        }
    }

    #[test]
    fn add_get_asymmetry_is_conservative() {
        // Add(k≠0) ◁ Get(v) is vacuously true exhaustively only for
        // specific v; the algebraic oracle is conservatively false, which
        // is sound (criteria only need `true` to be trustworthy).
        let spec = Counter::with_universe(6);
        let universe = spec.state_universe().unwrap();
        // Exhaustive: add(1) then get(v): forward requires post state v,
        // i.e. pre v-1; hypothetical requires pre state v. Different
        // states -> refuted (for v reachable in universe).
        assert!(!mover_exhaustive(
            &spec,
            &universe,
            &add(0, 0, 1),
            &get(1, 0, 0)
        ));
        assert!(!spec.mover(&add(0, 0, 1), &get(1, 0, 0)));
    }

    #[test]
    fn zero_add_moves_both_ways() {
        let spec = Counter::new();
        assert!(spec.mover(&add(0, 0, 0), &get(1, 0, 5)));
        assert!(spec.mover(&get(1, 0, 5), &add(0, 0, 0)));
    }
}
