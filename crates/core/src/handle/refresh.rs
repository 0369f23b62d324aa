//! The refresh of a [`TxnHandle`] — pulling the committed operations its
//! local log lacks — and the footprint that bounds the lenient one.

use std::collections::HashSet;

use crate::error::{MachineError, MachineResult};
use crate::op::OpId;
use crate::spec::SeqSpec;

use super::TxnHandle;

impl<S: SeqSpec> TxnHandle<S> {
    /// Pulls every *committed* global operation not yet in the local log,
    /// in global-log order — how opaque transactions snapshot the shared
    /// state (§6.2: "transactions begin by PULLing all operations"). The
    /// first PULL denial ends the refresh with that error.
    pub fn pull_all_committed(&mut self) -> MachineResult<usize> {
        self.refresh(false)
    }

    /// The lenient snapshot refresh drivers perform before applying an
    /// operation: pulls the committed operations the transaction can
    /// still *touch* — those whose declared keys
    /// ([`SeqSpec::method_keys`]) meet its footprint, and every one that
    /// declares none — skipping (rather than failing on) those whose PULL
    /// criteria do not hold. The footprint is the keys of every method
    /// the remaining code can reach and of every own operation already in
    /// `L` (an UNAPP hands its method back to the code); it is
    /// *everything*, as in [`Self::pull_all_committed`], when one of them
    /// declares no keys or no transaction is active. PULL is per
    /// operation (§4) and skipping one elides no criterion, so a footprint
    /// declared too small can cost a retry and never a verdict.
    ///
    /// # Errors
    ///
    /// Propagates only structural errors; criterion failures are skipped
    /// by design.
    pub fn pull_committed_lenient(&mut self) -> MachineResult<usize> {
        self.refresh(true)
    }

    /// The methods the remaining code can still invoke (none once the
    /// thread has finished) — what a PULL event records for the opacity
    /// check.
    pub(super) fn reachable_methods(&self) -> Vec<S::Method> {
        self.code
            .as_ref()
            .map(|c| c.reachable_methods())
            .unwrap_or_default()
    }

    /// The keys the current transaction can still touch, ascending and
    /// distinct: those `reachable` (the remaining code's methods) and the
    /// own entries of `L` declare. `None` — everything — when any of them
    /// declares no keys, or when no transaction is active.
    fn footprint(&self, reachable: &[S::Method]) -> Option<Vec<u64>> {
        self.code.as_ref()?;
        let spec = self.global.spec();
        let own = self.local.iter().filter(|e| e.flag.is_own());
        let mut keys = Vec::new();
        for method in reachable.iter().chain(own.map(|e| &e.op.method)) {
            keys.extend(spec.method_keys(method)?.iter().copied());
        }
        keys.sort_unstable();
        keys.dedup();
        Some(keys)
    }

    /// The refresh, one pass: snapshot the committed entries `L` lacks
    /// under one acquisition of the shards concerned (gather once), then
    /// run the ordinary PULL body on each, in stamp order, with no lock at
    /// all. The strict refresh concerns every shard and stops at the first
    /// denial; the `lenient` one concerns the shards of the transaction's
    /// footprint and skips denials. Returns how many were pulled.
    fn refresh(&mut self, lenient: bool) -> MachineResult<usize> {
        let reachable = self.reachable_methods();
        let footprint = if lenient {
            self.footprint(&reachable)
        } else {
            None
        };
        if footprint.as_ref().is_some_and(|keys| keys.is_empty()) {
            // Nothing reachable and nothing done: no shard to lock, at any
            // shard count.
            return Ok(0);
        }
        let have: Option<HashSet<OpId>> =
            (!self.local.is_empty()).then(|| self.local_ops().map(|op| op.id).collect());
        let have = |id| have.as_ref().is_some_and(|ids| ids.contains(&id));
        let fresh = self.global.committed_except(footprint.as_deref(), have);
        let mut pulled = 0;
        for entry in fresh {
            match self.pull_in(entry.op.id, Some((entry, &reachable))) {
                Ok(()) => pulled += 1,
                Err(MachineError::Criterion(_)) if lenient => {}
                Err(e) => return Err(e),
            }
        }
        Ok(pulled)
    }
}
