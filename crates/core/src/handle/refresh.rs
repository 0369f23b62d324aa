//! The refresh of a [`TxnHandle`] — pulling the committed operations its
//! local log lacks — and the two filters of the lenient one: the
//! footprint, and committed reads under a one-state `⟦ε⟧`.

use std::collections::HashSet;

use crate::error::{MachineError, MachineResult};
use crate::op::{Op, OpId};
use crate::spec::{OpInverse, SeqSpec};

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
    /// declares no keys or no transaction is active.
    ///
    /// When `⟦ε⟧` has exactly one state it also leaves in `G` every
    /// committed operation [`SeqSpec::inverse`] declares
    /// [`OpInverse::ReadOnly`]. `apply` is a function, so every `⟦L⟧`
    /// then holds at most one state: one that admits the read is left
    /// unchanged by it, and one that refuses it would have the PULL
    /// skipped anyway — so every later answer about `L` is the one the
    /// unfiltered refresh gives. Under several initial states a read
    /// narrows `⟦L⟧`, and reads are pulled.
    ///
    /// PULL is per operation (§4) and skipping one elides no criterion,
    /// so a footprint declared too small, or a state-changing operation
    /// declared read-only, can cost a retry and never a verdict.
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
    /// footprint, leaves committed reads in `G` under a one-state `⟦ε⟧`,
    /// and skips denials. Returns how many were pulled.
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
        let reads_stay = lenient && self.global.initial().len() == 1;
        let spec = self.global.spec();
        let read_only =
            |op: &Op<S::Method, S::Ret>| matches!(spec.inverse(op), OpInverse::ReadOnly);
        let skip = |op: &Op<S::Method, S::Ret>| (reads_stay && read_only(op)) || have(op.id);
        let fresh = self.global.committed_except(footprint.as_deref(), skip);
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

#[cfg(test)]
mod tests {
    use crate::lang::Code;
    use crate::machine::Machine;
    use crate::spec::SeqSpec;
    use crate::toy::{CounterMethod, ToyCounter, TwoStartCounter};

    /// One thread commits a `Get` and another, about to `Get`, refreshes
    /// leniently. Returns the returns the second thread's `Get` is allowed
    /// before the refresh, how many operations the refresh pulled, and the
    /// returns allowed after it.
    fn refresh_after_a_committed_get<S: SeqSpec<Method = CounterMethod, Ret = i64>>(
        spec: S,
    ) -> (Vec<i64>, usize, Vec<i64>) {
        let mut m = Machine::new(spec);
        let get = || vec![Code::method(CounterMethod::Get)];
        let (a, b) = (m.add_thread(get()), m.add_thread(get()));
        let op = m.app_auto(a).unwrap();
        m.push(a, op).unwrap();
        m.commit(a).unwrap();
        let h = m.handle_mut(b).unwrap();
        let before = h.allowed_results(&CounterMethod::Get).unwrap();
        let pulled = h.pull_committed_lenient().unwrap();
        (
            before,
            pulled,
            h.allowed_results(&CounterMethod::Get).unwrap(),
        )
    }

    /// Under one initial state the committed read changes nothing `L` can
    /// see, and stays in `G`.
    #[test]
    fn a_committed_read_stays_in_g_under_one_initial_state() {
        let spec = ToyCounter::with_bound(4);
        assert_eq!(refresh_after_a_committed_get(spec), (vec![0], 0, vec![0]));
    }

    /// Under two the committed read pins which one `G` started from: the
    /// refresh pulls it, and `⟦L⟧` narrows from both starts to `G`'s.
    #[test]
    fn a_committed_read_is_pulled_under_two_initial_states() {
        let spec = TwoStartCounter::new([5, 2], 8);
        assert_eq!(
            refresh_after_a_committed_get(spec),
            (vec![5, 2], 1, vec![5])
        );
    }
}
