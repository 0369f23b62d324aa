//! A key-value map — the sequential specification behind the boosted
//! hashtable of Figure 2 and the boosted `ConcurrentSkipListMap` of §7.
//!
//! Transactional boosting's abstract locks guarantee that concurrently
//! executing operations target distinct keys; the mover oracle here
//! certifies exactly why that is safe: **operations on distinct keys
//! commute**, and (for `Size`) mutations that do not change key presence
//! commute with size reads.

use std::collections::BTreeMap;
use std::fmt;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, OpInverse, Rets, SeqSpec};

/// Map keys.
pub type Key = u64;
/// Map values.
pub type Val = i64;

/// Methods of the key-value map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapMethod {
    /// Bind `key` to `val`; observes the previous binding.
    Put(Key, Val),
    /// Remove `key`; observes the previous binding.
    Remove(Key),
    /// Look up `key`; observes the current binding.
    Get(Key),
    /// Is `key` bound? Observes a boolean.
    ContainsKey(Key),
    /// Number of bindings; observes a count.
    Size,
}

impl MapMethod {
    /// The key this method touches, if key-local.
    #[inline]
    pub fn key(&self) -> Option<Key> {
        match self {
            MapMethod::Put(k, _)
            | MapMethod::Remove(k)
            | MapMethod::Get(k)
            | MapMethod::ContainsKey(k) => Some(*k),
            MapMethod::Size => None,
        }
    }

    /// Is this a read-only method?
    #[inline]
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            MapMethod::Get(_) | MapMethod::ContainsKey(_) | MapMethod::Size
        )
    }
}

impl fmt::Display for MapMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapMethod::Put(k, v) => write!(f, "put({k},{v})"),
            MapMethod::Remove(k) => write!(f, "remove({k})"),
            MapMethod::Get(k) => write!(f, "get({k})"),
            MapMethod::ContainsKey(k) => write!(f, "containsKey({k})"),
            MapMethod::Size => write!(f, "size()"),
        }
    }
}

/// Return values of the key-value map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapRet {
    /// Previous binding observed by `Put`/`Remove`.
    Prev(Option<Val>),
    /// Binding observed by `Get`.
    Val(Option<Val>),
    /// Presence observed by `ContainsKey`.
    Bool(bool),
    /// Count observed by `Size`.
    Count(usize),
}

/// Map state.
pub type MapState = BTreeMap<Key, Val>;

/// Operation records of the map.
pub type MapOp = Op<MapMethod, MapRet>;

/// The key-value map specification.
///
/// # Examples
///
/// ```
/// use pushpull_spec::kvmap::{KvMap, ops};
/// use pushpull_core::spec::SeqSpec;
///
/// let spec = KvMap::new();
/// // Puts on distinct keys commute — the heart of boosting's abstract locks:
/// assert!(spec.mover(&ops::put(0, 0, 1, 10, None), &ops::put(1, 1, 2, 20, None)));
/// // Puts on the same key do not:
/// assert!(!spec.mover(&ops::put(0, 0, 1, 10, None), &ops::put(1, 1, 1, 20, Some(10))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvMap {
    bound: Option<(Vec<Key>, Vec<Val>)>,
}

impl KvMap {
    /// An unbounded map (algebraic movers only).
    pub fn new() -> Self {
        Self { bound: None }
    }

    /// A bounded map over the given keys and values, with a finite state
    /// universe (every partial assignment) for exhaustive cross-checks.
    pub fn bounded(keys: Vec<Key>, vals: Vec<Val>) -> Self {
        Self {
            bound: Some((keys, vals)),
        }
    }
}

impl Default for KvMap {
    fn default() -> Self {
        Self::new()
    }
}

#[deny(clippy::missing_inline_in_public_items)]
impl SeqSpec for KvMap {
    type Method = MapMethod;
    type Ret = MapRet;
    type State = MapState;

    #[inline]
    fn initial_states(&self) -> Vec<MapState> {
        vec![MapState::new()]
    }

    #[inline]
    fn apply(&self, state: &mut MapState, method: &MapMethod, ret: &MapRet) -> bool {
        match (method, ret) {
            (MapMethod::Put(k, v), MapRet::Prev(prev)) if state.get(k) == prev.as_ref() => {
                state.insert(*k, *v);
            }
            (MapMethod::Remove(k), MapRet::Prev(prev)) if state.get(k) == prev.as_ref() => {
                state.remove(k);
            }
            (MapMethod::Get(k), MapRet::Val(v)) if state.get(k) == v.as_ref() => {}
            (MapMethod::ContainsKey(k), MapRet::Bool(b)) if state.contains_key(k) == *b => {}
            (MapMethod::Size, MapRet::Count(n)) if state.len() == *n => {}
            _ => return false,
        }
        true
    }

    #[inline]
    fn results(&self, state: &MapState, method: &MapMethod) -> Rets<MapRet> {
        Rets::one(match method {
            MapMethod::Put(k, _) | MapMethod::Remove(k) => MapRet::Prev(state.get(k).copied()),
            MapMethod::Get(k) => MapRet::Val(state.get(k).copied()),
            MapMethod::ContainsKey(k) => MapRet::Bool(state.contains_key(k)),
            MapMethod::Size => MapRet::Count(state.len()),
        })
    }

    #[inline]
    fn state_universe(&self) -> Option<Vec<MapState>> {
        let (keys, vals) = self.bound.as_ref()?;
        let mut states = vec![MapState::new()];
        for k in keys {
            let mut next = Vec::new();
            for s in &states {
                next.push(s.clone()); // key absent
                for v in vals {
                    let mut s2 = s.clone();
                    s2.insert(*k, *v);
                    next.push(s2);
                }
            }
            states = next;
        }
        Some(states)
    }

    #[inline]
    fn mover(&self, op1: &MapOp, op2: &MapOp) -> bool {
        let (m1, m2) = (&op1.method, &op2.method);
        match (m1.key(), m2.key()) {
            (Some(k1), Some(k2)) if k1 != k2 => true,
            (Some(_), Some(_)) => {
                // Same key: only read/read pairs commute (conservative —
                // value-exact refinements exist but boosting never
                // co-schedules same-key writers).
                m1.is_read() && m2.is_read()
            }
            // Size against key-local ops: commutes with reads, and with
            // mutations that preserved key presence (visible in the ret).
            (None, None) => true, // Size vs Size
            (None, Some(_)) => size_commutes_with(m2, &op2.ret),
            (Some(_), None) => size_commutes_with(m1, &op1.ret),
        }
    }

    #[inline]
    fn method_mover(&self, m1: &MapMethod, m2: &MapMethod) -> Option<bool> {
        Some(match (m1.key(), m2.key()) {
            (Some(k1), Some(k2)) if k1 != k2 => true,
            (Some(_), Some(_)) => m1.is_read() && m2.is_read(),
            (None, None) => true, // Size vs Size
            // Size against a mutator is return-dependent (only
            // presence-preserving mutations commute), so universally
            // over returns it holds only for reads.
            (None, Some(_)) => m2.is_read(),
            (Some(_), None) => m1.is_read(),
        })
    }

    /// Footprint: the touched key. `Size` reads every binding, so it
    /// declares no footprint (`None`) and soundly degrades a sharded
    /// log to the coarse whole-log path.
    #[inline]
    fn method_keys(&self, m: &MapMethod) -> Option<KeySet> {
        m.key().map(KeySet::one)
    }

    /// Every method on every bounded key (writes per value), plus the
    /// footprint-less `Size` — the certifier's coarse-forcing case.
    #[inline]
    fn method_universe(&self) -> Option<Vec<MapMethod>> {
        let (keys, vals) = self.bound.as_ref()?;
        let mut ms = Vec::new();
        for k in keys {
            for v in vals {
                ms.push(MapMethod::Put(*k, *v));
            }
            ms.push(MapMethod::Remove(*k));
            ms.push(MapMethod::Get(*k));
            ms.push(MapMethod::ContainsKey(*k));
        }
        ms.push(MapMethod::Size);
        Some(ms)
    }

    /// The `Prev`-carrying ret of `put`/`remove` is the undo-log entry;
    /// reads and a `remove` that found nothing change nothing.
    #[inline]
    fn inverse(&self, op: &MapOp) -> OpInverse<MapMethod, MapRet> {
        match (op.method, op.ret) {
            (MapMethod::Put(k, v), MapRet::Prev(Some(old))) => {
                OpInverse::Inverse(MapMethod::Put(k, old), MapRet::Prev(Some(v)))
            }
            (MapMethod::Put(k, v), MapRet::Prev(None)) => {
                OpInverse::Inverse(MapMethod::Remove(k), MapRet::Prev(Some(v)))
            }
            (MapMethod::Remove(k), MapRet::Prev(Some(old))) => {
                OpInverse::Inverse(MapMethod::Put(k, old), MapRet::Prev(None))
            }
            _ => OpInverse::ReadOnly,
        }
    }

    #[inline]
    fn has_inverses(&self) -> bool {
        true
    }
}

/// Does a key-local operation (with its observed ret) preserve key
/// presence, and hence commute with `Size`?
#[inline]
fn size_commutes_with(m: &MapMethod, ret: &MapRet) -> bool {
    match (m, ret) {
        (MapMethod::Get(_), _) | (MapMethod::ContainsKey(_), _) => true,
        (MapMethod::Put(_, _), MapRet::Prev(Some(_))) => true, // overwrite: size unchanged
        (MapMethod::Remove(_), MapRet::Prev(None)) => true,    // no-op remove
        _ => false,
    }
}

/// Convenience constructors for map operations.
pub mod ops {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};

    /// A `Put(key, val)` observing previous binding `prev`.
    pub fn put(id: u64, txn: u64, key: Key, val: Val, prev: Option<Val>) -> MapOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            MapMethod::Put(key, val),
            MapRet::Prev(prev),
        )
    }

    /// A `Remove(key)` observing previous binding `prev`.
    pub fn remove(id: u64, txn: u64, key: Key, prev: Option<Val>) -> MapOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            MapMethod::Remove(key),
            MapRet::Prev(prev),
        )
    }

    /// A `Get(key)` observing `val`.
    pub fn get(id: u64, txn: u64, key: Key, val: Option<Val>) -> MapOp {
        Op::new(OpId(id), TxnId(txn), MapMethod::Get(key), MapRet::Val(val))
    }

    /// A `ContainsKey(key)` observing `b`.
    pub fn contains(id: u64, txn: u64, key: Key, b: bool) -> MapOp {
        Op::new(
            OpId(id),
            TxnId(txn),
            MapMethod::ContainsKey(key),
            MapRet::Bool(b),
        )
    }

    /// A `Size` observing `n`.
    pub fn size(id: u64, txn: u64, n: usize) -> MapOp {
        Op::new(OpId(id), TxnId(txn), MapMethod::Size, MapRet::Count(n))
    }
}

#[cfg(test)]
mod tests {
    use super::ops as o;
    use super::*;
    use pushpull_core::spec::mover_exhaustive;

    #[test]
    fn put_get_remove_sequence() {
        let spec = KvMap::new();
        let log = vec![
            o::put(0, 0, 1, 10, None),
            o::get(1, 0, 1, Some(10)),
            o::remove(2, 0, 1, Some(10)),
            o::get(3, 0, 1, None),
        ];
        assert!(spec.allowed(&log));
    }

    #[test]
    fn put_ret_must_match_previous_binding() {
        let spec = KvMap::new();
        let bad = vec![o::put(0, 0, 1, 10, None), o::put(1, 0, 1, 20, None)];
        assert!(!spec.allowed(&bad), "second put must observe Some(10)");
        let good = vec![o::put(0, 0, 1, 10, None), o::put(1, 0, 1, 20, Some(10))];
        assert!(spec.allowed(&good));
    }

    #[test]
    fn distinct_keys_commute() {
        let spec = KvMap::new();
        assert!(spec.mover(&o::put(0, 0, 1, 10, None), &o::remove(1, 1, 2, None)));
        assert!(spec.mover(&o::get(0, 0, 1, None), &o::put(1, 1, 2, 5, None)));
    }

    #[test]
    fn same_key_reads_commute_writes_do_not() {
        let spec = KvMap::new();
        assert!(spec.mover(&o::get(0, 0, 1, Some(5)), &o::contains(1, 1, 1, true)));
        assert!(!spec.mover(&o::put(0, 0, 1, 10, None), &o::get(1, 1, 1, Some(10))));
        assert!(!spec.mover(&o::put(0, 0, 1, 10, None), &o::put(1, 1, 1, 20, Some(10))));
    }

    #[test]
    fn size_commutes_with_presence_preserving_ops() {
        let spec = KvMap::new();
        // Overwrite put preserves size.
        assert!(spec.mover(&o::size(0, 0, 3), &o::put(1, 1, 1, 10, Some(5))));
        // Fresh insert does not.
        assert!(!spec.mover(&o::size(0, 0, 3), &o::put(1, 1, 1, 10, None)));
        // No-op remove preserves size.
        assert!(spec.mover(&o::size(0, 0, 3), &o::remove(1, 1, 1, None)));
        // Real remove does not.
        assert!(!spec.mover(&o::size(0, 0, 3), &o::remove(1, 1, 1, Some(10))));
    }

    #[test]
    fn algebraic_movers_sound_wrt_exhaustive() {
        let spec = KvMap::bounded(vec![1, 2], vec![10, 20]);
        let universe = spec.state_universe().unwrap();
        assert_eq!(universe.len(), 9); // (absent|10|20)^2
        let mut sample: Vec<MapOp> = Vec::new();
        let mut id = 0;
        for k in [1u64, 2] {
            for prev in [None, Some(10), Some(20)] {
                sample.push(o::put(id, 0, k, 10, prev));
                id += 1;
                sample.push(o::remove(id, 0, k, prev));
                id += 1;
                sample.push(o::get(id, 0, k, prev));
                id += 1;
            }
            sample.push(o::contains(id, 0, k, true));
            id += 1;
            sample.push(o::contains(id, 0, k, false));
            id += 1;
        }
        for n in 0..=2 {
            sample.push(o::size(id, 0, n));
            id += 1;
        }
        for a in &sample {
            for b in &sample {
                if spec.mover(a, b) {
                    assert!(
                        mover_exhaustive(&spec, &universe, a, b),
                        "algebraic mover unsound for {:?}/{:?} vs {:?}/{:?}",
                        a.method,
                        a.ret,
                        b.method,
                        b.ret
                    );
                }
            }
        }
    }
}
