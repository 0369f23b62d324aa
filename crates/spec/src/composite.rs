//! Product of two sequential specifications.
//!
//! §7's example transaction touches a boosted skip list, a boosted hash
//! table, and HTM-managed integers *in one transaction*. In the model
//! that is a single sequential specification whose state is the product
//! of the components' states and whose methods are the disjoint union of
//! the components' methods. Operations on *different* components always
//! commute (they act on disjoint state); within a component the
//! component's own mover oracle decides.
//!
//! [`Product`] composes two specifications; nesting products composes any
//! number.

use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, Rets, SeqSpec};

/// Disjoint union of two method (or return) types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Either<L, R> {
    /// A value of the left component.
    L(L),
    /// A value of the right component.
    R(R),
}

impl<L: fmt::Display, R: fmt::Display> fmt::Display for Either<L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Either::L(l) => l.fmt(f),
            Either::R(r) => r.fmt(f),
        }
    }
}

/// The product specification of two components.
///
/// # Examples
///
/// ```
/// use pushpull_spec::composite::{Product, Either};
/// use pushpull_spec::counter::{Counter, CtrMethod, CtrRet};
/// use pushpull_spec::set::{SetSpec, SetMethod, SetRet};
/// use pushpull_core::spec::SeqSpec;
/// use pushpull_core::op::{Op, OpId, TxnId};
///
/// let spec = Product::new(SetSpec::new(), Counter::new());
/// let add = Op::new(OpId(0), TxnId(0), Either::L(SetMethod::Add(1)), Either::L(SetRet(true)));
/// let inc = Op::new(OpId(1), TxnId(1), Either::R(CtrMethod::Add(1)), Either::R(CtrRet::Ack));
/// // Cross-component operations always commute:
/// assert!(spec.mover(&add, &inc));
/// assert!(spec.allowed(&[add, inc]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Product<A, B> {
    left: A,
    right: B,
}

impl<A, B> Product<A, B> {
    /// Composes two specifications.
    pub fn new(left: A, right: B) -> Self {
        Self { left, right }
    }

    /// The left component.
    pub fn left(&self) -> &A {
        &self.left
    }

    /// The right component.
    pub fn right(&self) -> &B {
        &self.right
    }
}

/// An operation of a [`Product`] specification.
pub type ProductOp<A, B> = Op<
    Either<<A as SeqSpec>::Method, <B as SeqSpec>::Method>,
    Either<<A as SeqSpec>::Ret, <B as SeqSpec>::Ret>,
>;

/// A [`Product`] operation resolved to one component.
pub type SplitOp<A, B> = Either<
    Op<<A as SeqSpec>::Method, <A as SeqSpec>::Ret>,
    Op<<B as SeqSpec>::Method, <B as SeqSpec>::Ret>,
>;

impl<A: SeqSpec, B: SeqSpec> Product<A, B> {
    fn split_op(op: &ProductOp<A, B>) -> Option<SplitOp<A, B>> {
        match (&op.method, &op.ret) {
            (Either::L(m), Either::L(r)) => {
                Some(Either::L(Op::new(op.id, op.txn, m.clone(), r.clone())))
            }
            (Either::R(m), Either::R(r)) => {
                Some(Either::R(Op::new(op.id, op.txn, m.clone(), r.clone())))
            }
            _ => None, // mismatched method/ret component: never allowed
        }
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl<A: SeqSpec, B: SeqSpec> SeqSpec for Product<A, B> {
    type Method = Either<A::Method, B::Method>;
    type Ret = Either<A::Ret, B::Ret>;
    type State = (A::State, B::State);

    #[inline]
    fn initial_states(&self) -> Vec<(A::State, B::State)> {
        let rs = self.right.initial_states();
        self.left
            .initial_states()
            .into_iter()
            .flat_map(|l| rs.iter().map(move |r| (l.clone(), r.clone())))
            .collect()
    }

    #[inline]
    fn apply(
        &self,
        state: &mut (A::State, B::State),
        method: &Self::Method,
        ret: &Self::Ret,
    ) -> bool {
        match (method, ret) {
            (Either::L(m), Either::L(r)) => self.left.apply(&mut state.0, m, r),
            (Either::R(m), Either::R(r)) => self.right.apply(&mut state.1, m, r),
            _ => false,
        }
    }

    #[inline]
    fn results(&self, state: &(A::State, B::State), method: &Self::Method) -> Rets<Self::Ret> {
        match method {
            Either::L(m) => self
                .left
                .results(&state.0, m)
                .into_iter()
                .map(Either::L)
                .collect(),
            Either::R(m) => self
                .right
                .results(&state.1, m)
                .into_iter()
                .map(Either::R)
                .collect(),
        }
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<(A::State, B::State)>> {
        let ls = self.left.state_universe()?;
        let rs = self.right.state_universe()?;
        Some(
            ls.into_iter()
                .flat_map(|l| rs.iter().map(move |r| (l.clone(), r.clone())))
                .collect(),
        )
    }

    #[inline]
    fn mover(&self, op1: &Op<Self::Method, Self::Ret>, op2: &Op<Self::Method, Self::Ret>) -> bool {
        match (Self::split_op(op1), Self::split_op(op2)) {
            (Some(Either::L(a)), Some(Either::L(b))) => self.left.mover(&a, &b),
            (Some(Either::R(a)), Some(Either::R(b))) => self.right.mover(&a, &b),
            // Different components act on disjoint state: always movers.
            (Some(_), Some(_)) => true,
            // Ill-formed op (mismatched method/ret): never allowed anywhere,
            // so the mover holds vacuously.
            _ => true,
        }
    }

    #[inline]
    fn method_mover(&self, m1: &Self::Method, m2: &Self::Method) -> Option<bool> {
        match (m1, m2) {
            (Either::L(a), Either::L(b)) => self.left.method_mover(a, b),
            (Either::R(a), Either::R(b)) => self.right.method_mover(a, b),
            // Different components act on disjoint state: always movers.
            _ => Some(true),
        }
    }

    /// Footprint: the component's keys, tagged even/odd so left and
    /// right classes never collide (`2k` vs `2k + 1`). Wrapping overflow
    /// can only *merge* classes — a conservative (sound) degradation,
    /// never a split — and a component without footprints propagates
    /// `None`, degrading the whole product to the coarse path.
    #[inline]
    fn method_keys(&self, m: &Self::Method) -> Option<KeySet> {
        match m {
            Either::L(a) => Some(
                self.left
                    .method_keys(a)?
                    .iter()
                    .map(|k| k.wrapping_mul(2))
                    .collect(),
            ),
            Either::R(b) => Some(
                self.right
                    .method_keys(b)?
                    .iter()
                    .map(|k| k.wrapping_mul(2).wrapping_add(1))
                    .collect(),
            ),
        }
    }

    /// The disjoint union of the components' method universes; both
    /// sides must be bounded for the product to certify.
    #[inline]
    fn method_universe(&self) -> Option<Vec<Self::Method>> {
        let ls = self.left.method_universe()?;
        let rs = self.right.method_universe()?;
        Some(
            ls.into_iter()
                .map(Either::L)
                .chain(rs.into_iter().map(Either::R))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{ops as cops, Counter};
    use crate::set::{ops as sops, SetSpec};
    use pushpull_core::op::{OpId, TxnId};
    use pushpull_core::spec::mover_exhaustive;

    type Pair = Product<SetSpec, Counter>;

    fn lift_set(op: crate::set::SetOp) -> Op<<Pair as SeqSpec>::Method, <Pair as SeqSpec>::Ret> {
        Op::new(op.id, op.txn, Either::L(op.method), Either::L(op.ret))
    }

    fn lift_ctr(
        op: crate::counter::CtrOp,
    ) -> Op<<Pair as SeqSpec>::Method, <Pair as SeqSpec>::Ret> {
        Op::new(op.id, op.txn, Either::R(op.method), Either::R(op.ret))
    }

    #[test]
    fn components_evolve_independently() {
        let spec = Pair::new(SetSpec::new(), Counter::new());
        let log = vec![
            lift_set(sops::add(0, 0, 5, true)),
            lift_ctr(cops::add(1, 0, 3)),
            lift_set(sops::contains(2, 0, 5, true)),
            lift_ctr(cops::get(3, 0, 3)),
        ];
        assert!(spec.allowed(&log));
    }

    #[test]
    fn cross_component_ops_commute() {
        let spec = Pair::new(SetSpec::new(), Counter::new());
        let a = lift_set(sops::add(0, 0, 1, true));
        let g = lift_ctr(cops::get(1, 1, 0));
        assert!(spec.mover(&a, &g));
        assert!(spec.mover(&g, &a));
    }

    #[test]
    fn within_component_movers_delegate() {
        let spec = Pair::new(SetSpec::new(), Counter::new());
        // Set: same-element add/contains must not move.
        let add = lift_set(sops::add(0, 0, 1, true));
        let has = lift_set(sops::contains(1, 1, 1, true));
        assert!(!spec.mover(&add, &has));
        // Counter: adds commute.
        let c1 = lift_ctr(cops::add(2, 0, 1));
        let c2 = lift_ctr(cops::add(3, 1, 2));
        assert!(spec.mover(&c1, &c2));
    }

    #[test]
    fn mismatched_component_ops_are_disallowed() {
        let spec = Pair::new(SetSpec::new(), Counter::new());
        let bad = Op::new(
            OpId(0),
            TxnId(0),
            Either::<crate::set::SetMethod, crate::counter::CtrMethod>::L(
                crate::set::SetMethod::Add(1),
            ),
            Either::R(crate::counter::CtrRet::Ack),
        );
        assert!(!spec.allowed(&[bad]));
    }

    #[test]
    fn product_movers_sound_exhaustively() {
        let spec = Product::new(SetSpec::bounded(vec![1]), Counter::with_universe(3));
        let universe = spec.state_universe().unwrap();
        let sample = vec![
            lift_set(sops::add(0, 0, 1, true)),
            lift_set(sops::contains(1, 0, 1, false)),
            lift_ctr(cops::add(2, 0, 1)),
            lift_ctr(cops::get(3, 0, 0)),
        ];
        for a in &sample {
            for b in &sample {
                if spec.mover(a, b) {
                    assert!(mover_exhaustive(&spec, &universe, a, b));
                }
            }
        }
    }
}
