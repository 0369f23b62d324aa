//! Read/write memory: the sequential specification of classic word-based
//! STMs (TL2 \[6\], TinySTM \[8\]) and of the simulated HTM of §7.
//!
//! Methods are `Read(loc)` and `Write(loc, val)` over integer locations;
//! the state is a total map from locations to values (default `0`). The
//! paper's §3 example — `allowed ℓ·⟨a := x, [x↦5], [x↦5, a↦5], id⟩` — is
//! exactly [`MemMethod::Read`] observing the current binding.
//!
//! The mover oracle is *exact* on a per-value basis (more precise than a
//! read/write-set approximation):
//!
//! | `op₁ ◁ op₂`? | distinct locs | same loc |
//! |---|---|---|
//! | `Read(v₁)`, `Read(v₂)` | yes | yes |
//! | `Read(v)`, `Write(w)` | yes | iff `v == w` |
//! | `Write(w)`, `Read(v)` | yes | iff `v != w` (then vacuous) |
//! | `Write(w₁)`, `Write(w₂)` | yes | iff `w₁ == w₂` |
//!
//! These equivalences are proved by the exhaustive checker in the tests
//! over a bounded sub-universe.

use std::collections::BTreeMap;
use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, OpInverse, Rets, SeqSpec};

/// A memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub u32);

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Methods of the read/write memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemMethod {
    /// Read a location; observes its current value.
    Read(Loc),
    /// Write a value to a location; observes an ack.
    Write(Loc, i64),
}

impl MemMethod {
    /// The location this method touches.
    #[inline]
    pub fn loc(&self) -> Loc {
        match self {
            MemMethod::Read(l) | MemMethod::Write(l, _) => *l,
        }
    }

    /// Is this a read?
    #[inline]
    pub fn is_read(&self) -> bool {
        matches!(self, MemMethod::Read(_))
    }
}

impl fmt::Display for MemMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemMethod::Read(l) => write!(f, "rd({l})"),
            MemMethod::Write(l, v) => write!(f, "wr({l},{v})"),
        }
    }
}

/// Return values of the read/write memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRet {
    /// The value observed by a read.
    Val(i64),
    /// Acknowledgement of a write.
    Ack,
}

/// Memory state: a finite map, with absent locations reading as `0`.
pub type MemState = BTreeMap<Loc, i64>;

/// Operation records of the read/write memory.
pub type MemOp = Op<MemMethod, MemRet>;

/// The value `l` holds in `state` (absent locations read as `0`).
#[inline]
fn read(state: &MemState, l: &Loc) -> i64 {
    state.get(l).copied().unwrap_or(0)
}

/// May `v` be written under `bound`? A bounded memory only holds its values.
#[inline]
fn writable(bound: &Option<(Vec<Loc>, Vec<i64>)>, v: &i64) -> bool {
    bound.as_ref().is_none_or(|(_, vals)| vals.contains(v))
}

/// The read/write memory specification.
///
/// Unbounded by default (no state universe); [`RwMem::bounded`] produces a
/// variant with a finite universe so the exhaustive mover checker can
/// cross-validate the algebraic oracle.
///
/// # Examples
///
/// ```
/// use pushpull_spec::rwmem::{RwMem, MemMethod, MemRet, Loc};
/// use pushpull_core::spec::SeqSpec;
/// use pushpull_core::op::{Op, OpId, TxnId};
///
/// let spec = RwMem::new();
/// let w = Op::new(OpId(0), TxnId(0), MemMethod::Write(Loc(0), 5), MemRet::Ack);
/// let r = Op::new(OpId(1), TxnId(0), MemMethod::Read(Loc(0)), MemRet::Val(5));
/// assert!(spec.allowed(&[w, r]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RwMem {
    bound: Option<(Vec<Loc>, Vec<i64>)>,
}

impl RwMem {
    /// An unbounded memory (algebraic movers only).
    pub fn new() -> Self {
        Self { bound: None }
    }

    /// A bounded memory over the given locations and values, providing a
    /// finite state universe of all total assignments.
    pub fn bounded(locs: Vec<Loc>, vals: Vec<i64>) -> Self {
        Self {
            bound: Some((locs, vals)),
        }
    }
}

impl Default for RwMem {
    fn default() -> Self {
        Self::new()
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for RwMem {
    type Method = MemMethod;
    type Ret = MemRet;
    type State = MemState;

    #[inline]
    fn initial_states(&self) -> Vec<MemState> {
        vec![MemState::new()]
    }

    #[inline]
    fn apply(&self, state: &mut MemState, method: &MemMethod, ret: &MemRet) -> bool {
        match (method, ret) {
            (MemMethod::Read(l), MemRet::Val(v)) if read(state, l) == *v => {}
            (MemMethod::Write(l, v), MemRet::Ack) if writable(&self.bound, v) => {
                state.insert(*l, *v);
            }
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &MemState, method: &MemMethod) -> Rets<MemRet> {
        match method {
            MemMethod::Read(l) => Rets::one(MemRet::Val(read(state, l))),
            MemMethod::Write(_, v) if writable(&self.bound, v) => Rets::one(MemRet::Ack),
            MemMethod::Write(..) => Rets::new(),
        }
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<MemState>> {
        let (locs, vals) = self.bound.as_ref()?;
        let mut states = vec![MemState::new()];
        for l in locs {
            let mut next = Vec::new();
            for s in &states {
                for v in vals {
                    let mut s2 = s.clone();
                    s2.insert(*l, *v);
                    next.push(s2);
                }
            }
            states = next;
        }
        Some(states)
    }

    #[inline]
    fn mover(&self, op1: &MemOp, op2: &MemOp) -> bool {
        let (m1, m2) = (&op1.method, &op2.method);
        if m1.loc() != m2.loc() {
            return true;
        }
        match (m1, &op1.ret, m2, &op2.ret) {
            (MemMethod::Read(_), _, MemMethod::Read(_), _) => true,
            (MemMethod::Read(_), MemRet::Val(v), MemMethod::Write(_, w), _) => v == w,
            (MemMethod::Write(_, w), _, MemMethod::Read(_), MemRet::Val(v)) => v != w,
            (MemMethod::Write(_, w1), _, MemMethod::Write(_, w2), _) => w1 == w2,
            _ => false,
        }
    }

    #[inline]
    fn method_mover(&self, m1: &MemMethod, m2: &MemMethod) -> Option<bool> {
        if m1.loc() != m2.loc() {
            return Some(true);
        }
        Some(match (m1, m2) {
            (MemMethod::Read(_), MemMethod::Read(_)) => true,
            // Same-value blind writes are idempotent in either order.
            (MemMethod::Write(_, w1), MemMethod::Write(_, w2)) => w1 == w2,
            // Read/write on one location is return-dependent (the read
            // must observe the written value, or provably not).
            _ => false,
        })
    }

    /// Footprint: exactly the touched location. Reads/writes on distinct
    /// locations are both-movers (the first arm of `mover`), so the
    /// disjointness law holds by construction.
    #[inline]
    fn method_keys(&self, m: &MemMethod) -> Option<KeySet> {
        Some(KeySet::one(u64::from(m.loc().0)))
    }

    /// A read plus one write per bounded value, per location — the
    /// same-value write-write arm of `method_mover` included.
    #[inline]
    fn method_universe(&self) -> Option<Vec<MemMethod>> {
        let (locs, vals) = self.bound.as_ref()?;
        let mut ms = Vec::new();
        for l in locs {
            ms.push(MemMethod::Read(*l));
            for v in vals {
                ms.push(MemMethod::Write(*l, *v));
            }
        }
        Some(ms)
    }

    /// Reads are undo-free, but an absolute `Write` destroys the
    /// previous binding and has no context-free inverse — use
    /// [`MemInverse`] (whose writes record the overwritten value) when
    /// open nesting or boosting-style undo is needed.
    #[inline]
    fn inverse(&self, op: &MemOp) -> OpInverse<MemMethod, MemRet> {
        match op.method {
            MemMethod::Read(_) => OpInverse::ReadOnly,
            MemMethod::Write(_, _) => OpInverse::NotInvertible,
        }
    }
}

/// Return values of the undo-logging memory [`MemInverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UndoRet {
    /// The value observed by a read.
    Val(i64),
    /// The *previous* value observed by a write — the undo-log entry a
    /// word-based STM records alongside the store.
    Prev(i64),
}

/// Operation records of the undo-logging memory.
pub type UndoOp = Op<MemMethod, UndoRet>;

/// Read/write memory whose writes observe the overwritten value —
/// the undo-logging variant of [`RwMem`].
///
/// A plain `Write(l, v) / Ack` destroys information (the previous
/// binding of `l` is gone), so [`RwMem`] is not invertible and cannot
/// host open-nested scopes. Word-based STMs solve this by keeping an
/// undo log: each store records the value it overwrote. `MemInverse`
/// bakes that into the specification — `Write` returns
/// [`UndoRet::Prev`], and the inverse of `Write(l, v) / Prev(p)` is
/// `Write(l, p) / Prev(v)`, which restores every pre-state exactly.
///
/// The extra observation makes writes order-sensitive (the second
/// write observes the first), so same-location movers are strictly
/// rarer than [`RwMem`]'s; the algebraic fast path below only claims
/// distinct-location commutation and defers same-location questions to
/// the exhaustive oracle on bounded instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemInverse {
    bound: Option<(Vec<Loc>, Vec<i64>)>,
}

impl MemInverse {
    /// An unbounded undo-logging memory.
    pub fn new() -> Self {
        Self { bound: None }
    }

    /// A bounded undo-logging memory over the given locations and
    /// values, providing a finite state universe of all total
    /// assignments (and a finite method alphabet).
    pub fn bounded(locs: Vec<Loc>, vals: Vec<i64>) -> Self {
        Self {
            bound: Some((locs, vals)),
        }
    }
}

impl Default for MemInverse {
    fn default() -> Self {
        Self::new()
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for MemInverse {
    type Method = MemMethod;
    type Ret = UndoRet;
    type State = MemState;

    #[inline]
    fn initial_states(&self) -> Vec<MemState> {
        vec![MemState::new()]
    }

    #[inline]
    fn apply(&self, state: &mut MemState, method: &MemMethod, ret: &UndoRet) -> bool {
        match (method, ret) {
            (MemMethod::Read(l), UndoRet::Val(v)) if read(state, l) == *v => {}
            // A write is allowed exactly where its recorded previous
            // value matches the current binding — the undo log pins the
            // pre-state.
            (MemMethod::Write(l, v), UndoRet::Prev(p))
                if read(state, l) == *p && writable(&self.bound, v) =>
            {
                state.insert(*l, *v);
            }
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &MemState, method: &MemMethod) -> Rets<UndoRet> {
        match method {
            MemMethod::Read(l) => Rets::one(UndoRet::Val(read(state, l))),
            MemMethod::Write(l, v) if writable(&self.bound, v) => {
                Rets::one(UndoRet::Prev(read(state, l)))
            }
            MemMethod::Write(..) => Rets::new(),
        }
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<MemState>> {
        let (locs, vals) = self.bound.as_ref()?;
        let mut states = vec![MemState::new()];
        for l in locs {
            let mut next = Vec::new();
            for s in &states {
                for v in vals {
                    let mut s2 = s.clone();
                    s2.insert(*l, *v);
                    next.push(s2);
                }
            }
            states = next;
        }
        Some(states)
    }

    /// Distinct locations always commute; same-location pairs are
    /// decided exhaustively on bounded instances (and conservatively
    /// refused on unbounded ones — Prev-observing writes see each
    /// other, so the algebraic table for [`RwMem`] does not carry over).
    #[inline]
    fn mover(&self, op1: &UndoOp, op2: &UndoOp) -> bool {
        if op1.method.loc() != op2.method.loc() {
            return true;
        }
        match self.state_universe() {
            Some(universe) => pushpull_core::spec::mover_exhaustive(self, &universe, op1, op2),
            None => matches!(
                (&op1.method, &op2.method),
                (MemMethod::Read(_), MemMethod::Read(_))
            ),
        }
    }

    #[inline]
    fn method_mover(&self, m1: &MemMethod, m2: &MemMethod) -> Option<bool> {
        if m1.loc() != m2.loc() {
            return Some(true);
        }
        match self.state_universe() {
            Some(universe) => Some(pushpull_core::spec::method_mover_exhaustive(
                self, &universe, m1, m2,
            )),
            None => Some(matches!((m1, m2), (MemMethod::Read(_), MemMethod::Read(_)))),
        }
    }

    #[inline]
    fn method_keys(&self, m: &MemMethod) -> Option<KeySet> {
        Some(KeySet::one(u64::from(m.loc().0)))
    }

    #[inline]
    fn method_universe(&self) -> Option<Vec<MemMethod>> {
        let (locs, vals) = self.bound.as_ref()?;
        let mut ms = Vec::new();
        for l in locs {
            ms.push(MemMethod::Read(*l));
            for v in vals {
                ms.push(MemMethod::Write(*l, *v));
            }
        }
        Some(ms)
    }

    /// The recorded previous value *is* the undo-log entry: write it
    /// back, observing the value being undone. Reads change nothing.
    #[inline]
    fn inverse(&self, op: &UndoOp) -> OpInverse<MemMethod, UndoRet> {
        match (op.method, op.ret) {
            (MemMethod::Write(l, v), UndoRet::Prev(p)) => {
                OpInverse::Inverse(MemMethod::Write(l, p), UndoRet::Prev(v))
            }
            _ => OpInverse::ReadOnly,
        }
    }

    #[inline]
    fn has_inverses(&self) -> bool {
        true
    }
}

/// Convenience constructors for memory operations in tests and examples.
pub mod ops {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};

    /// `read(id, txn, loc, observed)` — a read observing `observed`.
    pub fn read(id: u64, txn: u64, loc: u32, observed: i64) -> MemOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            MemMethod::Read(Loc(loc)),
            MemRet::Val(observed),
        )
    }

    /// `write(id, txn, loc, val)` — a write of `val`.
    pub fn write(id: u64, txn: u64, loc: u32, val: i64) -> MemOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            MemMethod::Write(Loc(loc), val),
            MemRet::Ack,
        )
    }

    /// `undo_read(id, txn, loc, observed)` — a [`MemInverse`] read.
    pub fn undo_read(id: u64, txn: u64, loc: u32, observed: i64) -> UndoOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            MemMethod::Read(Loc(loc)),
            UndoRet::Val(observed),
        )
    }

    /// `undo_write(id, txn, loc, val, prev)` — a [`MemInverse`] write of
    /// `val` that recorded previous value `prev`.
    pub fn undo_write(id: u64, txn: u64, loc: u32, val: i64, prev: i64) -> UndoOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            MemMethod::Write(Loc(loc), val),
            UndoRet::Prev(prev),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::ops::{read, write};
    use super::*;
    use pushpull_core::spec::mover_exhaustive;

    fn bounded() -> RwMem {
        RwMem::bounded(vec![Loc(0), Loc(1)], vec![0, 1, 2])
    }

    #[test]
    fn read_observes_latest_write() {
        let spec = RwMem::new();
        let log = vec![write(0, 0, 0, 1), write(1, 0, 0, 2), read(2, 0, 0, 2)];
        assert!(spec.allowed(&log));
        let bad = vec![write(0, 0, 0, 1), read(1, 0, 0, 2)];
        assert!(!spec.allowed(&bad));
    }

    #[test]
    fn unwritten_locations_read_zero() {
        let spec = RwMem::new();
        assert!(spec.allowed(&[read(0, 0, 7, 0)]));
        assert!(!spec.allowed(&[read(0, 0, 7, 1)]));
    }

    #[test]
    fn distinct_locations_always_move() {
        let spec = RwMem::new();
        assert!(spec.mover(&write(0, 0, 0, 1), &write(1, 1, 1, 2)));
        assert!(spec.mover(&read(0, 0, 0, 0), &write(1, 1, 1, 2)));
    }

    #[test]
    fn same_location_mover_table() {
        let spec = RwMem::new();
        // Read/Read: yes.
        assert!(spec.mover(&read(0, 0, 0, 1), &read(1, 1, 0, 1)));
        // Read(v) ◁ Write(w): iff v == w.
        assert!(spec.mover(&read(0, 0, 0, 2), &write(1, 1, 0, 2)));
        assert!(!spec.mover(&read(0, 0, 0, 1), &write(1, 1, 0, 2)));
        // Write(w) ◁ Read(v): iff v != w (vacuous).
        assert!(spec.mover(&write(0, 0, 0, 2), &read(1, 1, 0, 1)));
        assert!(!spec.mover(&write(0, 0, 0, 2), &read(1, 1, 0, 2)));
        // Write/Write: iff same value.
        assert!(spec.mover(&write(0, 0, 0, 2), &write(1, 1, 0, 2)));
        assert!(!spec.mover(&write(0, 0, 0, 1), &write(1, 1, 0, 2)));
    }

    #[test]
    fn algebraic_movers_match_exhaustive_exactly() {
        let spec = bounded();
        let universe = spec.state_universe().unwrap();
        assert_eq!(universe.len(), 9);
        let mut ops: Vec<MemOp> = Vec::new();
        let mut id = 0;
        for loc in [0u32, 1] {
            for v in [0i64, 1, 2] {
                ops.push(read(id, 0, loc, v));
                id += 1;
                ops.push(write(id, 1, loc, v));
                id += 1;
            }
        }
        for a in &ops {
            for b in &ops {
                let algebraic = spec.mover(a, b);
                let exhaustive = mover_exhaustive(&spec, &universe, a, b);
                assert_eq!(
                    algebraic, exhaustive,
                    "mover mismatch for {:?} vs {:?}",
                    a.method, b.method
                );
            }
        }
    }

    #[test]
    fn results_are_deterministic() {
        let spec = RwMem::new();
        let mut s = MemState::new();
        s.insert(Loc(3), 9);
        assert_eq!(
            spec.results(&s, &MemMethod::Read(Loc(3))).as_slice(),
            [MemRet::Val(9)]
        );
        assert_eq!(
            spec.results(&s, &MemMethod::Write(Loc(3), 1)).as_slice(),
            [MemRet::Ack]
        );
    }
}
