//! Bank accounts — the classic *asymmetric* mover example.
//!
//! `Deposit` always commutes with `Deposit`. A successful `Withdraw`
//! moves **right** across a `Deposit` (withdraw-then-deposit can be
//! reordered to deposit-then-withdraw: more money never hurts), but a
//! `Deposit` does *not* move right across a successful `Withdraw` (the
//! withdraw might only have succeeded because of the deposit). This is
//! the textbook Lipton left/right-mover asymmetry, and the tests verify
//! it exhaustively.

use std::collections::BTreeMap;
use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, OpInverse, Rets, SeqSpec};

/// Account identifiers.
pub type Acct = u32;
/// Money amounts (non-negative in well-formed methods).
pub type Amount = i64;

/// Methods of the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankMethod {
    /// Deposit `amount` into `acct`; observes an ack.
    Deposit(Acct, Amount),
    /// Withdraw `amount` from `acct` if the balance suffices; observes
    /// success.
    Withdraw(Acct, Amount),
    /// Read the balance of `acct`.
    Balance(Acct),
}

impl BankMethod {
    /// The account this method touches.
    #[inline]
    pub fn acct(&self) -> Acct {
        match self {
            BankMethod::Deposit(a, _) | BankMethod::Withdraw(a, _) | BankMethod::Balance(a) => *a,
        }
    }
}

impl fmt::Display for BankMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankMethod::Deposit(a, n) => write!(f, "deposit(a{a},{n})"),
            BankMethod::Withdraw(a, n) => write!(f, "withdraw(a{a},{n})"),
            BankMethod::Balance(a) => write!(f, "balance(a{a})"),
        }
    }
}

/// Return values of the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankRet {
    /// Acknowledgement of a deposit.
    Ack,
    /// Success flag of a withdraw.
    Ok(bool),
    /// Balance observed.
    Amount(Amount),
}

/// Bank state: account balances (absent accounts have balance 0).
pub type BankState = BTreeMap<Acct, Amount>;

/// Operation records of the bank.
pub type BankOp = Op<BankMethod, BankRet>;

/// The bank specification.
///
/// # Examples
///
/// ```
/// use pushpull_spec::bank::{Bank, ops};
/// use pushpull_core::spec::SeqSpec;
///
/// let spec = Bank::new();
/// // The Lipton asymmetry: a successful withdraw moves across a deposit…
/// assert!(spec.mover(&ops::withdraw(0, 0, 1, 5, true), &ops::deposit(1, 1, 1, 3)));
/// // …but a deposit does not move across a successful withdraw.
/// assert!(!spec.mover(&ops::deposit(0, 0, 1, 3), &ops::withdraw(1, 1, 1, 5, true)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    bound: Option<(Vec<Acct>, Amount)>,
}

impl Bank {
    /// An unbounded bank (algebraic movers only).
    pub fn new() -> Self {
        Self { bound: None }
    }

    /// A bounded bank over the given accounts with balances `0..=max`,
    /// with a finite state universe for exhaustive cross-checks.
    pub fn bounded(accts: Vec<Acct>, max: Amount) -> Self {
        Self {
            bound: Some((accts, max)),
        }
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for Bank {
    type Method = BankMethod;
    type Ret = BankRet;
    type State = BankState;

    #[inline]
    fn initial_states(&self) -> Vec<BankState> {
        vec![BankState::new()]
    }

    #[inline]
    fn apply(&self, state: &mut BankState, method: &BankMethod, ret: &BankRet) -> bool {
        let bal = |s: &BankState, a: &Acct| s.get(a).copied().unwrap_or(0);
        // Canonical representation: a zero balance is never stored, so
        // states that agree on every balance are *equal* — which is what
        // lets `deposit ∘ withdraw` round-trip exactly (the open-nesting
        // restoration law compares states, not observations).
        let set = |s: &mut BankState, a: Acct, v: Amount| {
            if v == 0 {
                s.remove(&a);
            } else {
                s.insert(a, v);
            }
        };
        match (method, ret) {
            (BankMethod::Deposit(a, n), BankRet::Ack) if *n >= 0 => {
                let after = bal(state, a) + n;
                set(state, *a, after);
            }
            (BankMethod::Withdraw(a, n), BankRet::Ok(ok))
                if *n >= 0 && (bal(state, a) >= *n) == *ok =>
            {
                if *ok {
                    let after = bal(state, a) - n;
                    set(state, *a, after);
                }
            }
            (BankMethod::Balance(a), BankRet::Amount(v)) if bal(state, a) == *v => {}
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &BankState, method: &BankMethod) -> Rets<BankRet> {
        let bal = |a: &Acct| state.get(a).copied().unwrap_or(0);
        match method {
            // A negative amount is refused in every state.
            BankMethod::Deposit(_, n) | BankMethod::Withdraw(_, n) if *n < 0 => Rets::new(),
            BankMethod::Deposit(_, _) => Rets::one(BankRet::Ack),
            BankMethod::Withdraw(a, n) => Rets::one(BankRet::Ok(bal(a) >= *n)),
            BankMethod::Balance(a) => Rets::one(BankRet::Amount(bal(a))),
        }
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<BankState>> {
        let (accts, max) = self.bound.as_ref()?;
        let mut states = vec![BankState::new()];
        for a in accts {
            let mut next = Vec::new();
            for s in &states {
                // v = 0 is represented by absence (canonical states).
                for v in 0..=*max {
                    let mut s2 = s.clone();
                    if v != 0 {
                        s2.insert(*a, v);
                    }
                    next.push(s2);
                }
            }
            states = next;
        }
        Some(states)
    }

    #[inline]
    fn mover(&self, op1: &BankOp, op2: &BankOp) -> bool {
        use BankMethod::*;
        if op1.method.acct() != op2.method.acct() {
            return true;
        }
        let ok = |op: &BankOp| matches!(op.ret, BankRet::Ok(true));
        match (&op1.method, &op2.method) {
            // Deposits always commute.
            (Deposit(_, _), Deposit(_, _)) => true,
            // Balance reads commute with each other.
            (Balance(_), Balance(_)) => true,
            // Successful withdraws commute with each other (both succeed
            // iff bal ≥ n₁+n₂ in either order; failed ones are
            // state-pinned — conservative no unless both failed with the
            // same threshold... keep simple: both-success only).
            (Withdraw(_, _), Withdraw(_, _)) => ok(op1) && ok(op2),
            // Successful withdraw moves right across a deposit (more
            // money never turns success into failure, and the resulting
            // balance is the same either way).
            (Withdraw(_, _), Deposit(_, _)) => ok(op1),
            // Deposit·Withdraw(failed) reorders to Withdraw(failed)·
            // Deposit: if the withdraw failed despite the deposit it
            // certainly fails without it, and the balances agree.
            (Deposit(_, _), Withdraw(_, _)) => matches!(op2.ret, BankRet::Ok(false)),
            // Balance against mutators: pinned values, conservative no
            // (zero-amount refinements aside).
            (Balance(_), Deposit(_, n)) | (Balance(_), Withdraw(_, n)) => *n == 0,
            (Deposit(_, n), Balance(_)) | (Withdraw(_, n), Balance(_)) => *n == 0,
        }
    }

    #[inline]
    fn method_mover(&self, m1: &BankMethod, m2: &BankMethod) -> Option<bool> {
        use BankMethod::*;
        if m1.acct() != m2.acct() {
            return Some(true);
        }
        Some(match (m1, m2) {
            (Deposit(_, _), Deposit(_, _)) => true,
            (Balance(_), Balance(_)) => true,
            // Withdraw pairs and balance-vs-mutator movers depend on the
            // observed returns (success/failure, zero amounts); they do
            // not hold universally — except for zero-amount mutators,
            // which are no-ops against a balance read.
            (Balance(_), Deposit(_, n)) | (Balance(_), Withdraw(_, n)) => *n == 0,
            (Deposit(_, n), Balance(_)) | (Withdraw(_, n), Balance(_)) => *n == 0,
            // A zero-amount withdraw always succeeds (balances never go
            // negative), so the pair observes `Ok(true)`/`Ok(true)` —
            // exactly the both-success case the op-level oracle accepts.
            (Withdraw(_, 0), Withdraw(_, 0)) => true,
            _ => false,
        })
    }

    /// Footprint: the touched account — distinct accounts are
    /// both-movers (the first arm of `method_mover`).
    #[inline]
    fn method_keys(&self, m: &BankMethod) -> Option<KeySet> {
        Some(KeySet::one(u64::from(m.acct())))
    }

    /// Deposits and withdraws over small amounts (including the
    /// zero-amount no-ops the mover oracle special-cases) plus balance
    /// reads, per bounded account.
    #[inline]
    fn method_universe(&self) -> Option<Vec<BankMethod>> {
        let (accts, max) = self.bound.as_ref()?;
        let mut ms = Vec::new();
        for a in accts {
            for n in 0..=(*max).min(2) {
                ms.push(BankMethod::Deposit(*a, n));
                ms.push(BankMethod::Withdraw(*a, n));
            }
            ms.push(BankMethod::Balance(*a));
        }
        Some(ms)
    }

    /// A deposit is undone by a withdrawal of the same amount and vice
    /// versa; failed withdrawals, zero amounts and `Balance` leave the
    /// state untouched.
    #[inline]
    fn inverse(&self, op: &BankOp) -> OpInverse<BankMethod, BankRet> {
        match (op.method, op.ret) {
            (BankMethod::Deposit(a, n), BankRet::Ack) if n > 0 => {
                OpInverse::Inverse(BankMethod::Withdraw(a, n), BankRet::Ok(true))
            }
            (BankMethod::Withdraw(a, n), BankRet::Ok(true)) if n > 0 => {
                OpInverse::Inverse(BankMethod::Deposit(a, n), BankRet::Ack)
            }
            _ => OpInverse::ReadOnly,
        }
    }

    #[inline]
    fn has_inverses(&self) -> bool {
        true
    }
}

/// Convenience constructors for bank operations.
pub mod ops {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};

    /// A `Deposit(acct, amount)`.
    pub fn deposit(id: u64, txn: u64, acct: Acct, amount: Amount) -> BankOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            BankMethod::Deposit(acct, amount),
            BankRet::Ack,
        )
    }

    /// A `Withdraw(acct, amount)` observing `ok`.
    pub fn withdraw(id: u64, txn: u64, acct: Acct, amount: Amount, ok: bool) -> BankOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            BankMethod::Withdraw(acct, amount),
            BankRet::Ok(ok),
        )
    }

    /// A `Balance(acct)` observing `v`.
    pub fn balance(id: u64, txn: u64, acct: Acct, v: Amount) -> BankOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            BankMethod::Balance(acct),
            BankRet::Amount(v),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::ops as o;
    use super::*;
    use pushpull_core::spec::mover_exhaustive;

    #[test]
    fn balances_track_deposits_and_withdraws() {
        let spec = Bank::new();
        let log = vec![
            o::deposit(0, 0, 1, 10),
            o::withdraw(1, 0, 1, 4, true),
            o::balance(2, 0, 1, 6),
            o::withdraw(3, 0, 1, 100, false),
            o::balance(4, 0, 1, 6),
        ];
        assert!(spec.allowed(&log));
    }

    #[test]
    fn overdraft_is_refused() {
        let spec = Bank::new();
        assert!(!spec.allowed(&[o::withdraw(0, 0, 1, 5, true)]));
        assert!(spec.allowed(&[o::withdraw(0, 0, 1, 5, false)]));
    }

    #[test]
    fn lipton_asymmetry() {
        let spec = Bank::new();
        assert!(spec.mover(&o::withdraw(0, 0, 1, 5, true), &o::deposit(1, 1, 1, 3)));
        assert!(!spec.mover(&o::deposit(0, 0, 1, 3), &o::withdraw(1, 1, 1, 5, true)));
    }

    #[test]
    fn algebraic_movers_sound_wrt_exhaustive() {
        let spec = Bank::bounded(vec![1, 2], 6);
        let universe = spec.state_universe().unwrap();
        let mut sample = Vec::new();
        let mut id = 0;
        for a in [1u32, 2] {
            for n in [0i64, 2, 3] {
                sample.push(o::deposit(id, 0, a, n));
                id += 1;
                sample.push(o::withdraw(id, 0, a, n, true));
                id += 1;
                sample.push(o::withdraw(id, 0, a, n, false));
                id += 1;
            }
            for v in [0i64, 3] {
                sample.push(o::balance(id, 0, a, v));
                id += 1;
            }
        }
        for x in &sample {
            for y in &sample {
                if spec.mover(x, y) {
                    assert!(
                        mover_exhaustive(&spec, &universe, x, y),
                        "unsound mover {:?}/{:?} vs {:?}/{:?}",
                        x.method,
                        x.ret,
                        y.method,
                        y.ret
                    );
                }
            }
        }
    }
}
