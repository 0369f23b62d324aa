//! Substrate mirrors: apply a committed operation log to the *real* data
//! structures and check the recorded observations.
//!
//! The PUSH/PULL model has no concrete state — only logs. A real
//! implementation (Figure 2) mutates base objects in place. A mirror
//! replays a committed log into the substrate and verifies that every
//! recorded return value matches what the implementation would actually
//! have produced — the model-level and implementation-level views of the
//! same execution must agree. Divergence means either the specification
//! mis-models the structure or the structure mis-implements the
//! specification; either way [`MirrorError`] pinpoints the operation.

use std::collections::BTreeMap;
use std::fmt;

use pushpull_core::op::{Op, OpId};
use pushpull_spec::kvmap::{MapMethod, MapRet};

/// A committed operation whose recorded observation disagrees with the
/// substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorError {
    /// The diverging operation.
    pub op: OpId,
    /// What the substrate produced.
    pub substrate: String,
    /// What the log recorded.
    pub recorded: String,
}

impl fmt::Display for MirrorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operation {} diverged: substrate produced {}, log recorded {}",
            self.op, self.substrate, self.recorded
        )
    }
}

impl std::error::Error for MirrorError {}

/// A mirror of the [`KvMap`](pushpull_spec::kvmap::KvMap) specification
/// over `std`'s [`BTreeMap`], standing in for the paper's
/// `ConcurrentSkipListMap` base object: an ordered map, which boosting
/// only needs to be linearizable (see [`Linearized`](crate::sync::Linearized)).
///
/// # Examples
///
/// ```
/// use pushpull_ds::mirror::MapMirror;
/// use pushpull_spec::kvmap::ops;
///
/// let mut mirror = MapMirror::new();
/// mirror.apply(&ops::put(0, 0, 1, 10, None))?;
/// mirror.apply(&ops::get(1, 0, 1, Some(10)))?;
/// assert_eq!(mirror.map().len(), 1);
/// // A divergent observation is caught:
/// assert!(mirror.apply(&ops::get(2, 0, 1, Some(99))).is_err());
/// # Ok::<(), pushpull_ds::mirror::MirrorError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapMirror {
    map: BTreeMap<u64, i64>,
}

impl MapMirror {
    /// Creates an empty mirror.
    pub fn new() -> Self {
        Self {
            map: BTreeMap::new(),
        }
    }

    /// The mirrored structure.
    pub fn map(&self) -> &BTreeMap<u64, i64> {
        &self.map
    }

    /// Applies one committed operation, checking its observation.
    ///
    /// # Errors
    ///
    /// [`MirrorError`] when the substrate's result differs from the
    /// recorded return value.
    pub fn apply(&mut self, op: &Op<MapMethod, MapRet>) -> Result<(), MirrorError> {
        let produced = match op.method {
            MapMethod::Put(k, v) => MapRet::Prev(self.map.insert(k, v)),
            MapMethod::Remove(k) => MapRet::Prev(self.map.remove(&k)),
            MapMethod::Get(k) => MapRet::Val(self.map.get(&k).copied()),
            MapMethod::ContainsKey(k) => MapRet::Bool(self.map.contains_key(&k)),
            MapMethod::Size => MapRet::Count(self.map.len()),
        };
        if produced == op.ret {
            Ok(())
        } else {
            Err(MirrorError {
                op: op.id,
                substrate: format!("{produced:?}"),
                recorded: format!("{:?}", op.ret),
            })
        }
    }

    /// Replays a whole committed log.
    ///
    /// # Errors
    ///
    /// The first divergence, if any.
    pub fn replay<'a>(
        &mut self,
        ops: impl IntoIterator<Item = &'a Op<MapMethod, MapRet>>,
    ) -> Result<usize, MirrorError> {
        let mut n = 0;
        for op in ops {
            self.apply(op)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_spec::kvmap::ops as mops;

    #[test]
    fn map_mirror_accepts_consistent_logs() {
        let mut m = MapMirror::new();
        let n = m
            .replay(&[
                mops::put(0, 0, 1, 10, None),
                mops::put(1, 1, 1, 20, Some(10)),
                mops::remove(2, 0, 1, Some(20)),
                mops::get(3, 1, 1, None),
                mops::size(4, 0, 0),
            ])
            .unwrap();
        assert_eq!(n, 5);
        assert!(m.map().is_empty());
    }

    #[test]
    fn map_mirror_pinpoints_divergence() {
        let mut m = MapMirror::new();
        m.apply(&mops::put(0, 0, 1, 10, None)).unwrap();
        let err = m.apply(&mops::put(1, 0, 1, 20, None)).unwrap_err();
        assert_eq!(err.op, pushpull_core::op::OpId(1));
        assert!(err.to_string().contains("diverged"));
    }
}
