//! Operation records and identifiers.
//!
//! The Push/Pull model represents all state as *logs of operation records*
//! (paper §3, "Operations and logs"). An operation record
//! `op = ⟨m, σ₁, σ₂, id⟩` consists of the method name `m`, the pre-stack σ₁
//! (the method's arguments), the post-stack σ₂ (its return values) and a
//! globally unique identifier `id`.
//!
//! In this executable rendering the method type `M` carries the method name
//! *and* its arguments (σ₁), and the return type `R` carries the observable
//! result (σ₂). This is isomorphic to the paper's stacks: the paper's σ are
//! thread-local environments whose only observable content at an operation
//! boundary is the argument/return values.
//!
//! Equality in the paper is *lifted by id* (`⟨m,σ,σ′,id⟩ ∈ L` compares ids
//! only). We keep structural `Eq` derives for whole-record comparison and
//! provide explicit id-based membership helpers on the log types.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Globally unique identifier of an operation record.
///
/// The paper assumes a `fresh(id)` predicate; here freshness is guaranteed
/// by construction: ids are only minted by [`OpIdGen`], which hands out
/// strictly increasing values.
///
/// # Examples
///
/// ```
/// use pushpull_core::op::OpIdGen;
/// let gen = OpIdGen::new();
/// let a = gen.fresh();
/// let b = gen.fresh();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifier of a *transaction instance*.
///
/// A thread executes a sequence of transactions; each attempt that reaches
/// commit is one instance. Operations record the transaction that issued
/// them so that the global log can be partitioned (`G ∖ L`, `cmt(G, L, G′)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a thread in a [`Machine`](crate::machine::Machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Thread-safe generator of fresh [`OpId`]s (the paper's `fresh` predicate,
/// realized constructively).
#[derive(Debug, Default)]
pub struct OpIdGen {
    next: AtomicU64,
}

impl OpIdGen {
    /// Creates a generator whose first id is `#0`.
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
        }
    }

    /// Mints a fresh, never-before-returned id.
    pub fn fresh(&self) -> OpId {
        OpId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for OpIdGen {
    fn clone(&self) -> Self {
        Self {
            next: AtomicU64::new(self.next.load(Ordering::Relaxed)),
        }
    }
}

/// An operation record `⟨m, σ₁, σ₂, id⟩` (paper §3), tagged with the
/// transaction that issued it.
///
/// `M` is the sequential specification's method type (name + arguments) and
/// `R` its return type; see [`SeqSpec`](crate::spec::SeqSpec).
///
/// # Examples
///
/// ```
/// use pushpull_core::op::{Op, OpId, TxnId};
/// let op = Op::new(OpId(0), TxnId(1), "inc", ());
/// assert_eq!(op.method, "inc");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op<M, R> {
    /// Globally unique identifier (the paper's `id`).
    pub id: OpId,
    /// The transaction instance that created this record.
    pub txn: TxnId,
    /// Method name with arguments (the paper's `m` plus the observable part of σ₁).
    pub method: M,
    /// Observed return value (the observable part of σ₂).
    pub ret: R,
}

impl<M, R> Op<M, R> {
    /// Creates a new operation record.
    pub fn new(id: OpId, txn: TxnId, method: M, ret: R) -> Self {
        Self {
            id,
            txn,
            method,
            ret,
        }
    }
}

impl<M: fmt::Display, R: fmt::Debug> fmt::Display for Op<M, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}={:?}@{}", self.method, self.id, self.ret, self.txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_are_fresh_and_increasing() {
        let gen = OpIdGen::new();
        let ids: Vec<OpId> = (0..100).map(|_| gen.fresh()).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn op_id_gen_is_thread_safe() {
        let gen = std::sync::Arc::new(OpIdGen::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = gen.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.fresh()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<OpId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate ids minted across threads");
    }

    #[test]
    fn cloned_generator_continues_from_current() {
        let gen = OpIdGen::new();
        gen.fresh();
        gen.fresh();
        let clone = gen.clone();
        assert_eq!(clone.fresh(), OpId(2));
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert_eq!(OpId(3).to_string(), "#3");
        assert_eq!(TxnId(4).to_string(), "t4");
        assert_eq!(ThreadId(5).to_string(), "T5");
    }
}
