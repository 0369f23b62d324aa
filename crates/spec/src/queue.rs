//! A FIFO queue — a deliberately *non-commutative* specification.
//!
//! Almost nothing moves across anything here (enqueue order is observable
//! through dequeues), so PUSH criterion (ii) forces transactions touching
//! the queue to serialize: the pessimistic end of the spectrum. The test
//! suites use it to exercise mover-failure paths and the machine's
//! conflict reporting.

use std::collections::VecDeque;
use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, Rets, SeqSpec};

/// Queue items.
pub type Item = i64;

/// Methods of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueMethod {
    /// Enqueue an item at the tail; observes an ack.
    Enq(Item),
    /// Dequeue from the head; observes the item (or `None` when empty).
    Deq,
    /// Peek the head without removing; observes the item (or `None`).
    Peek,
}

impl fmt::Display for QueueMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueMethod::Enq(v) => write!(f, "enq({v})"),
            QueueMethod::Deq => write!(f, "deq()"),
            QueueMethod::Peek => write!(f, "peek()"),
        }
    }
}

/// Return values of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueRet {
    /// Acknowledgement of an enqueue.
    Ack,
    /// Item observed by a dequeue or peek.
    Item(Option<Item>),
}

/// Queue state.
pub type QueueState = VecDeque<Item>;

/// Operation records of the queue.
pub type QueueOp = Op<QueueMethod, QueueRet>;

/// The FIFO queue specification.
///
/// # Examples
///
/// ```
/// use pushpull_spec::queue::{QueueSpec, ops};
/// use pushpull_core::spec::SeqSpec;
///
/// let spec = QueueSpec::new();
/// let log = vec![ops::enq(0, 0, 7), ops::enq(1, 0, 8), ops::deq(2, 1, Some(7))];
/// assert!(spec.allowed(&log));
/// // Enqueues do not commute — FIFO order is observable:
/// assert!(!spec.mover(&ops::enq(0, 0, 7), &ops::enq(1, 1, 8)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSpec {
    bound: Option<(Vec<Item>, usize)>,
}

impl QueueSpec {
    /// An unbounded queue (algebraic movers only).
    pub fn new() -> Self {
        Self { bound: None }
    }

    /// A bounded queue over the given items up to `max_len`, with a finite
    /// state universe for exhaustive cross-checks.
    pub fn bounded(items: Vec<Item>, max_len: usize) -> Self {
        Self {
            bound: Some((items, max_len)),
        }
    }

    /// May `v` be enqueued onto `state`? A bounded queue holds only its
    /// items, up to its length.
    #[inline]
    fn admits_enq(&self, state: &QueueState, v: &Item) -> bool {
        let bounded = self.bound.as_ref();
        bounded.is_none_or(|(items, max_len)| items.contains(v) && state.len() < *max_len)
    }
}

impl Default for QueueSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for QueueSpec {
    type Method = QueueMethod;
    type Ret = QueueRet;
    type State = QueueState;

    #[inline]
    fn initial_states(&self) -> Vec<QueueState> {
        vec![QueueState::new()]
    }

    #[inline]
    fn apply(&self, state: &mut QueueState, method: &QueueMethod, ret: &QueueRet) -> bool {
        let head = state.front().copied();
        match (method, ret) {
            (QueueMethod::Enq(v), QueueRet::Ack) if self.admits_enq(state, v) => {
                state.push_back(*v);
            }
            (QueueMethod::Deq, QueueRet::Item(seen)) if *seen == head => {
                state.pop_front();
            }
            (QueueMethod::Peek, QueueRet::Item(seen)) if *seen == head => {}
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &QueueState, method: &QueueMethod) -> Rets<QueueRet> {
        match method {
            QueueMethod::Enq(v) if self.admits_enq(state, v) => Rets::one(QueueRet::Ack),
            QueueMethod::Enq(_) => Rets::new(),
            QueueMethod::Deq | QueueMethod::Peek => {
                Rets::one(QueueRet::Item(state.front().copied()))
            }
        }
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<QueueState>> {
        let (items, max_len) = self.bound.as_ref()?;
        let mut states: Vec<QueueState> = vec![QueueState::new()];
        let mut frontier = states.clone();
        for _ in 0..*max_len {
            let mut next = Vec::new();
            for s in &frontier {
                for v in items {
                    let mut s2 = s.clone();
                    s2.push_back(*v);
                    next.push(s2);
                }
            }
            states.extend(next.iter().cloned());
            frontier = next;
        }
        Some(states)
    }

    #[inline]
    fn mover(&self, op1: &QueueOp, op2: &QueueOp) -> bool {
        match (&op1.method, &op2.method) {
            // Peeks commute with peeks.
            (QueueMethod::Peek, QueueMethod::Peek) => true,
            // Same-item enqueues are the same log in either order (both
            // observe an ack; the queue contents end up identical).
            (QueueMethod::Enq(a), QueueMethod::Enq(b)) if a == b => true,
            // Everything else is order-observable: conservative no.
            _ => false,
        }
    }

    #[inline]
    fn method_mover(&self, m1: &QueueMethod, m2: &QueueMethod) -> Option<bool> {
        // Return-independent already: peek/peek pairs and same-item
        // enqueue pairs move; nothing else does.
        Some(match (m1, m2) {
            (QueueMethod::Peek, QueueMethod::Peek) => true,
            (QueueMethod::Enq(a), QueueMethod::Enq(b)) => a == b,
            _ => false,
        })
    }

    /// Footprint: every method touches the one FIFO order — a single key
    /// class (queues admit no disjoint-access parallelism).
    #[inline]
    fn method_keys(&self, _m: &QueueMethod) -> Option<KeySet> {
        Some(KeySet::one(0))
    }

    /// One enqueue per bounded item, plus the observers — every arm of
    /// `method_mover` is exercised.
    #[inline]
    fn method_universe(&self) -> Option<Vec<QueueMethod>> {
        let (items, _) = self.bound.as_ref()?;
        let mut ms: Vec<QueueMethod> = items.iter().map(|v| QueueMethod::Enq(*v)).collect();
        ms.push(QueueMethod::Deq);
        ms.push(QueueMethod::Peek);
        Some(ms)
    }
}

/// Convenience constructors for queue operations.
pub mod ops {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};

    /// An `Enq(v)`.
    pub fn enq(id: u64, txn: u64, v: Item) -> QueueOp {
        Op::new(OpId(id), TxnId(txn), QueueMethod::Enq(v), QueueRet::Ack)
    }

    /// A `Deq` observing `v`.
    pub fn deq(id: u64, txn: u64, v: Option<Item>) -> QueueOp {
        Op::new(OpId(id), TxnId(txn), QueueMethod::Deq, QueueRet::Item(v))
    }

    /// A `Peek` observing `v`.
    pub fn peek(id: u64, txn: u64, v: Option<Item>) -> QueueOp {
        Op::new(OpId(id), TxnId(txn), QueueMethod::Peek, QueueRet::Item(v))
    }
}

#[cfg(test)]
mod tests {
    use super::ops as o;
    use super::*;
    use pushpull_core::spec::mover_exhaustive;

    #[test]
    fn fifo_order_enforced() {
        let spec = QueueSpec::new();
        assert!(spec.allowed(&[o::enq(0, 0, 1), o::enq(1, 0, 2), o::deq(2, 0, Some(1))]));
        assert!(!spec.allowed(&[o::enq(0, 0, 1), o::enq(1, 0, 2), o::deq(2, 0, Some(2))]));
    }

    #[test]
    fn empty_deq_observes_none() {
        let spec = QueueSpec::new();
        assert!(spec.allowed(&[o::deq(0, 0, None)]));
        assert!(!spec.allowed(&[o::deq(0, 0, Some(1))]));
    }

    #[test]
    fn almost_nothing_moves() {
        let spec = QueueSpec::new();
        assert!(!spec.mover(&o::enq(0, 0, 1), &o::enq(1, 1, 2)));
        assert!(!spec.mover(&o::deq(0, 0, Some(1)), &o::enq(1, 1, 2)));
        assert!(spec.mover(&o::peek(0, 0, Some(1)), &o::peek(1, 1, Some(1))));
    }

    #[test]
    fn algebraic_movers_sound_wrt_exhaustive() {
        let spec = QueueSpec::bounded(vec![1, 2], 2);
        let universe = spec.state_universe().unwrap();
        // ε, [1], [2], [1,1], [1,2], [2,1], [2,2]
        assert_eq!(universe.len(), 7);
        let sample = vec![
            o::enq(0, 0, 1),
            o::enq(1, 0, 2),
            o::deq(2, 0, Some(1)),
            o::deq(3, 0, None),
            o::peek(4, 0, Some(1)),
            o::peek(5, 0, None),
        ];
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
