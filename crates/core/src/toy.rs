//! A tiny bounded-counter specification used throughout the crate's
//! documentation examples and unit tests.
//!
//! Real specifications (read/write memory, maps, sets, queues, bank
//! accounts) live in the `pushpull-spec` crate; this one exists so that
//! `pushpull-core` is self-contained and its doc examples run.

use crate::op::{Op, OpId, TxnId};
use crate::spec::{OpInverse, Rets, SeqSpec};

/// Methods of the toy counter.
///
/// `Inc` and `Dec` return an acknowledgement (always `0`) rather than the
/// pre-value: returning the pre-value would make the observation pin the
/// state, destroying the commutativity (`inc ◁ inc`) that boosting-style
/// reasoning relies on. `Get` returns the current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterMethod {
    /// Increment the counter; returns `0` (an ack).
    Inc,
    /// Decrement the counter (saturating at zero); returns `0` (an ack).
    Dec,
    /// Read the counter; returns the value.
    Get,
}

impl std::fmt::Display for CounterMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CounterMethod::Inc => write!(f, "inc"),
            CounterMethod::Dec => write!(f, "dec"),
            CounterMethod::Get => write!(f, "get"),
        }
    }
}

/// Operation records of the toy counter.
pub type CounterOp = Op<CounterMethod, i64>;

/// A bounded counter: states are `0..=bound`, making the state universe
/// finite so the default exhaustive mover check of
/// [`SeqSpec::mover`] applies.
///
/// `Inc` above `bound` is disallowed (the denotation becomes empty), which
/// also gives the tests a convenient "not allowed" case.
///
/// # Examples
///
/// ```
/// use pushpull_core::toy::{ToyCounter, CounterMethod, counter_op};
/// use pushpull_core::spec::SeqSpec;
/// let spec = ToyCounter::with_bound(2);
/// let ops = vec![
///     counter_op(0, CounterMethod::Inc, 0),
///     counter_op(1, CounterMethod::Inc, 0),
///     counter_op(2, CounterMethod::Inc, 0), // would exceed the bound
/// ];
/// assert!(!spec.allowed(&ops));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToyCounter {
    bound: i64,
}

impl ToyCounter {
    /// Creates a counter bounded at `bound` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `bound < 0`.
    pub fn with_bound(bound: i64) -> Self {
        assert!(bound >= 0, "counter bound must be non-negative");
        Self { bound }
    }

    /// The inclusive upper bound of the counter.
    pub fn bound(&self) -> i64 {
        self.bound
    }
}

impl Default for ToyCounter {
    fn default() -> Self {
        Self::with_bound(16)
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for ToyCounter {
    type Method = CounterMethod;
    type Ret = i64;
    type State = i64;

    #[inline]
    fn initial_states(&self) -> Vec<i64> {
        vec![0]
    }

    #[inline]
    fn apply(&self, state: &mut i64, method: &CounterMethod, ret: &i64) -> bool {
        match method {
            CounterMethod::Inc if *ret == 0 && *state < self.bound => *state += 1,
            CounterMethod::Dec if *ret == 0 => *state = (*state - 1).max(0),
            CounterMethod::Get if *ret == *state => {}
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &i64, method: &CounterMethod) -> Rets<i64> {
        match method {
            CounterMethod::Inc if state + 1 > self.bound => Rets::new(),
            CounterMethod::Inc | CounterMethod::Dec => Rets::one(0),
            CounterMethod::Get => Rets::one(*state),
        }
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<i64>> {
        Some((0..=self.bound).collect())
    }

    #[inline]
    fn inverse(&self, op: &CounterOp) -> OpInverse<CounterMethod, i64> {
        match op.method {
            // inc from s<bound lands at s+1 ≥ 1, where dec restores s
            // exactly (never saturating).
            CounterMethod::Inc => OpInverse::Inverse(CounterMethod::Dec, 0),
            // dec saturates at zero — from state 0 it is the identity,
            // so inc does NOT undo it (0 → 0 → 1 ≠ 0): information lost.
            CounterMethod::Dec => OpInverse::NotInvertible,
            CounterMethod::Get => OpInverse::ReadOnly,
        }
    }

    // has_inverses stays false: Dec is not invertible, so an open-nested
    // ToyCounter scope that applied one cannot commit.
}

/// A *strict* bounded counter for the nested-transaction examples and
/// tests: like [`ToyCounter`] but `Dec` below zero is **disallowed**
/// rather than saturating, which makes every state-changing operation
/// exactly invertible (`inc⁻¹ = dec`, `dec⁻¹ = inc`) — the smallest
/// spec supporting open nesting with certified compensations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrictCounter {
    bound: i64,
}

impl StrictCounter {
    /// Creates a strict counter over states `0..=bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound < 0`.
    pub fn with_bound(bound: i64) -> Self {
        assert!(bound >= 0, "counter bound must be non-negative");
        Self { bound }
    }

    /// The inclusive upper bound of the counter.
    pub fn bound(&self) -> i64 {
        self.bound
    }
}

impl Default for StrictCounter {
    fn default() -> Self {
        Self::with_bound(16)
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for StrictCounter {
    type Method = CounterMethod;
    type Ret = i64;
    type State = i64;

    #[inline]
    fn initial_states(&self) -> Vec<i64> {
        vec![0]
    }

    #[inline]
    fn apply(&self, state: &mut i64, method: &CounterMethod, ret: &i64) -> bool {
        match method {
            CounterMethod::Inc if *ret == 0 && *state < self.bound => *state += 1,
            CounterMethod::Dec if *ret == 0 && *state > 0 => *state -= 1,
            CounterMethod::Get if *ret == *state => {}
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &i64, method: &CounterMethod) -> Rets<i64> {
        match method {
            CounterMethod::Inc if state + 1 > self.bound => Rets::new(),
            CounterMethod::Dec if *state <= 0 => Rets::new(),
            CounterMethod::Inc | CounterMethod::Dec => Rets::one(0),
            CounterMethod::Get => Rets::one(*state),
        }
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<i64>> {
        Some((0..=self.bound).collect())
    }

    #[inline]
    fn method_universe(&self) -> Option<Vec<CounterMethod>> {
        Some(vec![
            CounterMethod::Inc,
            CounterMethod::Dec,
            CounterMethod::Get,
        ])
    }

    #[inline]
    fn inverse(&self, op: &CounterOp) -> OpInverse<CounterMethod, i64> {
        match op.method {
            CounterMethod::Inc => OpInverse::Inverse(CounterMethod::Dec, 0),
            CounterMethod::Dec => OpInverse::Inverse(CounterMethod::Inc, 0),
            CounterMethod::Get => OpInverse::ReadOnly,
        }
    }

    #[inline]
    fn has_inverses(&self) -> bool {
        true
    }
}

/// A [`ToyCounter`] whose starting value is one of two, not known which:
/// `⟦ε⟧` has *two* states until a `Get` pins one — the smallest spec on
/// which a denotation is a genuine set, for the tests of
/// [`StateSet`](crate::spec::StateSet) and of the choices made by walking
/// one (APP's "first allowed return"). It declares `Get` read-only, as
/// [`ToyCounter`] does, and is the spec on which the lenient refresh must
/// still pull committed reads: here one narrows `⟦L⟧`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoStartCounter {
    starts: [i64; 2],
    counter: ToyCounter,
}

impl TwoStartCounter {
    /// A counter bounded at `bound` that starts at `starts[0]` or
    /// `starts[1]`, listed in that order by [`SeqSpec::initial_states`].
    ///
    /// # Panics
    ///
    /// Panics unless both starts lie in `0..=bound`.
    pub fn new(starts: [i64; 2], bound: i64) -> Self {
        assert!(
            starts.iter().all(|s| (0..=bound).contains(s)),
            "starts must lie within the bound"
        );
        Self {
            starts,
            counter: ToyCounter::with_bound(bound),
        }
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for TwoStartCounter {
    type Method = CounterMethod;
    type Ret = i64;
    type State = i64;

    #[inline]
    fn initial_states(&self) -> Vec<i64> {
        self.starts.to_vec()
    }

    #[inline]
    fn apply(&self, state: &mut i64, method: &CounterMethod, ret: &i64) -> bool {
        self.counter.apply(state, method, ret)
    }

    #[inline]
    fn results(&self, state: &i64, method: &CounterMethod) -> Rets<i64> {
        self.counter.results(state, method)
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<i64>> {
        self.counter.state_universe()
    }

    #[inline]
    fn method_universe(&self) -> Option<Vec<CounterMethod>> {
        Some(vec![
            CounterMethod::Inc,
            CounterMethod::Dec,
            CounterMethod::Get,
        ])
    }

    #[inline]
    fn inverse(&self, op: &CounterOp) -> OpInverse<CounterMethod, i64> {
        self.counter.inverse(op)
    }
}

/// Convenience constructor for counter operations in tests and examples:
/// `counter_op(id, method, ret)` with the transaction defaulting to `t0`.
pub fn counter_op(id: u64, method: CounterMethod, ret: i64) -> CounterOp {
    Op::new(OpId(id), TxnId(0), method, ret)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_enforced() {
        let spec = ToyCounter::with_bound(1);
        let ops = vec![
            counter_op(0, CounterMethod::Inc, 0),
            counter_op(1, CounterMethod::Inc, 0),
        ];
        assert!(!spec.allowed(&ops));
    }

    #[test]
    fn dec_saturates_at_zero() {
        let spec = ToyCounter::with_bound(4);
        let ops = vec![
            counter_op(0, CounterMethod::Dec, 0),
            counter_op(1, CounterMethod::Get, 0),
        ];
        assert!(spec.allowed(&ops));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bound_panics() {
        let _ = ToyCounter::with_bound(-1);
    }

    #[test]
    fn default_has_roomy_bound() {
        assert!(ToyCounter::default().bound() >= 8);
    }
}
