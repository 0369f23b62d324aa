//! A compare-and-swap register — conditional operations, the semantic
//! middle ground between commutative counters and order-pinned queues.
//!
//! `Cas(e, n)` succeeds iff the register holds `e`. Failed CAS's are
//! read-like (they only observe); successful CAS's are write-like. The
//! mover table is value-sensitive:
//!
//! * `Read(v)`/`Read(v′)` and failed-CAS pairs commute (pure observers);
//! * a successful `Cas(e→n)` moves across a failed `Cas(e′, _)` only if
//!   the failure is preserved in both orders (`e′ ≠ e` and `e′ ≠ n`);
//! * two successful CAS's never commute (each consumes the other's
//!   precondition) — except the degenerate `e = n` no-ops.
//!
//! All claims are cross-validated against the exhaustive Definition 4.1
//! checker in the tests.

use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, Rets, SeqSpec};

/// Methods of the CAS register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegMethod {
    /// Read the register.
    Read,
    /// Unconditional store.
    Write(i64),
    /// Compare-and-swap: if the value equals `expected`, store `new`.
    /// Observes success.
    Cas {
        /// Value the register must currently hold.
        expected: i64,
        /// Value stored on success.
        new: i64,
    },
}

impl fmt::Display for RegMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegMethod::Read => write!(f, "read()"),
            RegMethod::Write(v) => write!(f, "write({v})"),
            RegMethod::Cas { expected, new } => write!(f, "cas({expected}->{new})"),
        }
    }
}

/// Return values of the CAS register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegRet {
    /// Value observed by a read.
    Val(i64),
    /// Acknowledgement of a write.
    Ack,
    /// Success flag of a CAS.
    Swapped(bool),
}

/// Operation records of the register.
pub type RegOp = Op<RegMethod, RegRet>;

/// The CAS register specification. The register starts at `0`.
///
/// # Examples
///
/// ```
/// use pushpull_spec::register::{CasRegister, ops};
/// use pushpull_core::spec::SeqSpec;
///
/// let spec = CasRegister::new();
/// let log = vec![
///     ops::cas(0, 0, 0, 5, true),   // 0 -> 5
///     ops::cas(1, 1, 0, 9, false),  // loses the race
///     ops::read(2, 1, 5),
/// ];
/// assert!(spec.allowed(&log));
/// // Two successful CAS's on the same expectation cannot both happen:
/// assert!(!spec.mover(&ops::cas(0, 0, 0, 5, true), &ops::cas(1, 1, 0, 9, true)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CasRegister {
    universe: Option<i64>,
}

impl CasRegister {
    /// An unbounded register (algebraic movers only).
    pub fn new() -> Self {
        Self { universe: None }
    }

    /// A register whose state universe is `0..=max`, enabling exhaustive
    /// mover cross-validation.
    pub fn with_universe(max: i64) -> Self {
        Self {
            universe: Some(max),
        }
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for CasRegister {
    type Method = RegMethod;
    type Ret = RegRet;
    type State = i64;

    #[inline]
    fn initial_states(&self) -> Vec<i64> {
        vec![0]
    }

    #[inline]
    fn apply(&self, state: &mut i64, method: &RegMethod, ret: &RegRet) -> bool {
        match (method, ret) {
            (RegMethod::Read, RegRet::Val(v)) if *v == *state => {}
            (RegMethod::Write(v), RegRet::Ack) => *state = *v,
            (RegMethod::Cas { expected, new }, RegRet::Swapped(ok))
                if (state == expected) == *ok =>
            {
                if *ok {
                    *state = *new;
                }
            }
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &i64, method: &RegMethod) -> Rets<RegRet> {
        Rets::one(match method {
            RegMethod::Read => RegRet::Val(*state),
            RegMethod::Write(_) => RegRet::Ack,
            RegMethod::Cas { expected, .. } => RegRet::Swapped(state == expected),
        })
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<i64>> {
        self.universe.map(|m| (0..=m).collect())
    }

    #[inline]
    fn mover(&self, op1: &RegOp, op2: &RegOp) -> bool {
        use RegMethod::*;
        use RegRet::*;
        // Classify each op: Some(value it pins) for observers, and the
        // state transition for mutators.
        let read_like = |op: &RegOp| -> Option<()> {
            match (&op.method, &op.ret) {
                (Read, Val(_)) => Some(()),
                (Cas { .. }, Swapped(false)) => Some(()),
                _ => None,
            }
        };
        match (&op1.method, &op1.ret, &op2.method, &op2.ret) {
            // Two observers always commute (each pins the same state in
            // either order, or the pair is jointly impossible).
            _ if read_like(op1).is_some() && read_like(op2).is_some() => {
                // Except: two failed CAS's are fine; a failed CAS and a
                // read are fine; handled uniformly. But a failed CAS
                // whose *expected* equals the read's value pins nothing
                // inconsistent either. Observers never change state.
                true
            }
            // Successful CAS moving across a failed CAS: failure must be
            // preserved when the successful one runs first (post-value
            // `new` must also not match the failer's expectation), and
            // the success precondition must be untouched (trivially —
            // the failer does not change state).
            (
                Cas {
                    expected: e1,
                    new: n1,
                },
                Swapped(true),
                Cas { expected: e2, .. },
                Swapped(false),
            ) => {
                // forward: s==e1, then fail: n1 != e2; backward: fail
                // first needs s != e2 (s==e1, so e1 != e2).
                n1 != e2 && e1 != e2
            }
            (
                Cas { expected: e1, .. },
                Swapped(false),
                Cas {
                    expected: e2,
                    new: n2,
                },
                Swapped(true),
            ) => {
                // forward: s != e1 and s == e2; backward: after the swap
                // the failer must still fail: n2 != e1.
                n2 != e1 && e1 != e2
            }
            // Degenerate no-op successful CAS (e == n) is an observer.
            (
                Cas {
                    expected: e,
                    new: n,
                },
                Swapped(true),
                _,
                _,
            ) if e == n => self.mover(&RegOp::new(op1.id, op1.txn, Read, Val(*e)), op2),
            (
                _,
                _,
                Cas {
                    expected: e,
                    new: n,
                },
                Swapped(true),
            ) if e == n => self.mover(op1, &RegOp::new(op2.id, op2.txn, Read, Val(*e))),
            // Writes of the same value commute with each other.
            (Write(a), Ack, Write(b), Ack) => a == b,
            // Everything else involving a mutator: conservative no.
            _ => false,
        }
    }

    /// Footprint: every method touches the one register cell — a single
    /// key class (a register admits no disjoint-access parallelism).
    #[inline]
    fn method_keys(&self, _m: &RegMethod) -> Option<KeySet> {
        Some(KeySet::one(0))
    }

    /// Reads, writes, and CAS's over a small value range (including the
    /// degenerate `expected == new` no-op CAS's).
    #[inline]
    fn method_universe(&self) -> Option<Vec<RegMethod>> {
        let max = self.universe?.min(2);
        let mut ms = vec![RegMethod::Read];
        for v in 0..=max {
            ms.push(RegMethod::Write(v));
            for n in 0..=max {
                ms.push(RegMethod::Cas {
                    expected: v,
                    new: n,
                });
            }
        }
        Some(ms)
    }
}

/// Convenience constructors for register operations.
pub mod ops {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};

    /// A `Read` observing `v`.
    pub fn read(id: u64, txn: u64, v: i64) -> RegOp {
        Op::new(OpId(id), TxnId(txn), RegMethod::Read, RegRet::Val(v))
    }

    /// A `Write(v)`.
    pub fn write(id: u64, txn: u64, v: i64) -> RegOp {
        Op::new(OpId(id), TxnId(txn), RegMethod::Write(v), RegRet::Ack)
    }

    /// A `Cas(expected → new)` observing `ok`.
    pub fn cas(id: u64, txn: u64, expected: i64, new: i64, ok: bool) -> RegOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            RegMethod::Cas { expected, new },
            RegRet::Swapped(ok),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::ops as o;
    use super::*;
    use pushpull_core::spec::mover_exhaustive;

    #[test]
    fn cas_succeeds_iff_expectation_holds() {
        let spec = CasRegister::new();
        assert!(spec.allowed(&[o::cas(0, 0, 0, 5, true), o::read(1, 0, 5)]));
        assert!(!spec.allowed(&[o::cas(0, 0, 1, 5, true)]));
        assert!(spec.allowed(&[o::cas(0, 0, 1, 5, false), o::read(1, 0, 0)]));
    }

    #[test]
    fn winner_loser_pattern() {
        // The lock-acquisition idiom: two CAS(0->tid), one wins.
        let spec = CasRegister::new();
        let log = vec![o::cas(0, 0, 0, 1, true), o::cas(1, 1, 0, 2, false)];
        assert!(spec.allowed(&log));
        let both = vec![o::cas(0, 0, 0, 1, true), o::cas(1, 1, 0, 2, true)];
        assert!(!spec.allowed(&both));
    }

    #[test]
    fn algebraic_movers_sound_wrt_exhaustive() {
        let spec = CasRegister::with_universe(3);
        let universe = spec.state_universe().unwrap();
        let mut sample = Vec::new();
        let mut id = 0;
        for v in 0..=2i64 {
            sample.push(o::read(id, 0, v));
            id += 1;
            sample.push(o::write(id, 0, v));
            id += 1;
            for n in 0..=2i64 {
                sample.push(o::cas(id, 0, v, n, true));
                id += 1;
                sample.push(o::cas(id, 0, v, n, false));
                id += 1;
            }
        }
        for a in &sample {
            for b in &sample {
                if spec.mover(a, b) {
                    assert!(
                        mover_exhaustive(&spec, &universe, a, b),
                        "unsound mover {:?}/{:?} vs {:?}/{:?}",
                        a.method,
                        a.ret,
                        b.method,
                        b.ret
                    );
                }
            }
        }
    }

    #[test]
    fn successful_cas_vs_failed_cas_table() {
        let spec = CasRegister::new();
        // cas(0->1, ok) vs cas(2->9, fail): 1≠2 and 0≠2 → movers.
        assert!(spec.mover(&o::cas(0, 0, 0, 1, true), &o::cas(1, 1, 2, 9, false)));
        // cas(0->2, ok) vs cas(2->9, fail): new == failer's expected → no.
        assert!(!spec.mover(&o::cas(0, 0, 0, 2, true), &o::cas(1, 1, 2, 9, false)));
    }

    #[test]
    fn noop_cas_is_an_observer() {
        let spec = CasRegister::new();
        // cas(1->1, ok) pins the state at 1 but changes nothing: moves
        // across a read of 1.
        assert!(spec.mover(&o::cas(0, 0, 1, 1, true), &o::read(1, 1, 1)));
        assert!(spec.mover(&o::read(1, 1, 1), &o::cas(0, 0, 1, 1, true)));
    }
}
