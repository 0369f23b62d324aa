//! The carried local denotation of a [`TxnHandle`].
//!
//! APP (ii), PULL (ii) and UNPULL (i) are `allowed` queries over the
//! *local* log. The handle keeps `⟦L⟧` beside `L` (`LocalDenot`, a
//! [`StateSet`] — one inline state for every deterministic spec), so each
//! is one check of that set rather than a replay of `L`: an append steps
//! the set in place by the appended operation; removing the tail keeps
//! only the fact that `L` was allowed, which by prefix closure answers the
//! next UNPULL at the tail; anything else replays `L` once, lazily. The
//! criterion is a *check* — the check-first law of [`SeqSpec::results`] —
//! so a denial leaves the carried set as it was and nothing is copied to
//! ask. [`TxnHandle::app_method`] and [`TxnHandle::app_auto`] pick their
//! return value by the same law: the first one `⟦L⟧` offers is allowed.
//! Each rule firing is still exactly one audited `allowed` query, and
//! [`GlobalState::set_incremental`]`(false)` switches the carried set off
//! with the shards' prefix caches — the full-replay reference.

use std::borrow::Cow;

use crate::error::{MachineError, MachineResult};
use crate::log::LocalEntry;
use crate::op::Op;
use crate::spec::{SeqSpec, StateSet};

use super::TxnHandle;

/// What a handle knows of `⟦L⟧` without replaying `L` — the carried local
/// denotation (DESIGN.md §10). Always *valid* for the current `L`; whether
/// the local criteria use it is [`GlobalState::incremental`]'s call.
#[derive(Debug, Clone)]
pub(super) enum LocalDenot<St> {
    /// Nothing: the next local criterion replays `L` once.
    Unknown,
    /// `allowed L` holds — `L` is a prefix of a log that was allowed, and
    /// `allowed` is prefix-closed — but the states went with the removed
    /// tail.
    Allowed,
    /// `⟦L⟧` itself.
    States(StateSet<St>),
}

impl<St> LocalDenot<St> {
    /// Is `allowed L` known to hold?
    pub(super) fn allowed(&self) -> bool {
        match self {
            LocalDenot::Unknown => false,
            LocalDenot::Allowed => true,
            LocalDenot::States(states) => !states.is_empty(),
        }
    }

    /// What is still known once the tail entry of `L` is removed: prefix
    /// closure keeps `allowed`, nothing keeps the states.
    pub(super) fn without_tail(&self) -> Self {
        if self.allowed() {
            LocalDenot::Allowed
        } else {
            LocalDenot::Unknown
        }
    }
}

impl<S: SeqSpec> TxnHandle<S> {
    /// Return values `r` such that the local log allows `⟨m, r⟩`
    /// (APP criterion (ii) candidates): by the check-first law, every
    /// return some state of `⟦L⟧` offers, in the order the states first
    /// offer them — reproducible, since a [`StateSet`] iterates in
    /// insertion order.
    pub fn allowed_results(&self, method: &S::Method) -> MachineResult<Vec<S::Ret>> {
        let spec = self.global.spec();
        let mut rets = Vec::new();
        for s in self.local_denotation().iter() {
            for r in spec.results(s, method) {
                if !rets.contains(&r) {
                    rets.push(r);
                }
            }
        }
        Ok(rets)
    }

    /// The first return value `L` allows `method` to observe — what
    /// [`Self::app_method`] and [`Self::app_auto`] apply.
    pub(super) fn first_allowed(&mut self, method: &S::Method) -> MachineResult<S::Ret> {
        self.carry();
        let spec = self.global.spec();
        let states = self.local_denotation();
        let first = states
            .iter()
            .find_map(|s| spec.results(s, method).into_iter().next());
        first.ok_or(MachineError::NoAllowedResult(self.tid))
    }

    // ------------------------------------------------------------------
    // The carried local denotation: `⟦L⟧` kept beside `L`, so the local
    // criteria check it instead of replaying `L`, and an append steps it
    // in place. Every change to `L` goes through `append_local` or leaves
    // `denot` what `without_tail` allows; `set_incremental(false)` ignores
    // it and is the full-replay reference.
    // ------------------------------------------------------------------

    /// The operations of `L`, in log order.
    pub(super) fn local_ops(&self) -> impl Iterator<Item = &Op<S::Method, S::Ret>> {
        self.local.iter().map(|e| &e.op)
    }

    /// The carried `⟦L⟧`, if there is one and the incremental path is on.
    fn carried(&self) -> Option<&StateSet<S::State>> {
        match &self.denot {
            LocalDenot::States(states) if self.global.incremental() => Some(states),
            _ => None,
        }
    }

    /// `⟦L⟧`: the carried set, or else one replay of `L`.
    fn local_denotation(&self) -> Cow<'_, StateSet<S::State>> {
        match self.carried() {
            Some(states) => Cow::Borrowed(states),
            None => Cow::Owned(self.global.denote_refs(self.local_ops())),
        }
    }

    /// With the incremental path on, makes sure `⟦L⟧` is carried: one
    /// replay of `L` if a removal (or a reset — `⟦ε⟧` is the initial
    /// states) dropped it.
    fn carry(&mut self) {
        let spec = self.global.spec();
        if self.global.incremental() && !matches!(self.denot, LocalDenot::States(_)) {
            self.denot = LocalDenot::States(self.global.denote_refs(self.local_ops()));
        }
        debug_assert!(
            match &self.denot {
                LocalDenot::Unknown => true,
                LocalDenot::Allowed => spec.allowed(&self.local.ops()),
                LocalDenot::States(states) => *states == spec.denote(&self.local.ops()),
            },
            "the carried denotation is stale: {:?}",
            self.denot
        );
    }

    /// `L allows op` — the one audited query behind APP (ii) and PULL
    /// (ii): a check of the carried `⟦L⟧`, which stays as it was whatever
    /// the answer, or with the incremental path off a replay of `L · op`.
    pub(super) fn local_allows(&mut self, op: &Op<S::Method, S::Ret>) -> bool {
        self.global.counters.audit.count_allowed();
        self.carry();
        let spec = self.global.spec();
        match self.carried() {
            Some(states) => states.admits(spec, op),
            None => !self
                .global
                .denote_refs(self.local_ops().chain(std::iter::once(op)))
                .is_empty(),
        }
    }

    /// Appends `entry` to `L`. `allowed` says [`Self::local_allows`]
    /// passed on its operation: then a carried `⟦L⟧` is stepped in place
    /// to `⟦L · entry⟧`; otherwise nothing is known of the new `L`.
    pub(super) fn append_local(&mut self, entry: LocalEntry<S::Method, S::Ret>, allowed: bool) {
        let spec = self.global.spec();
        self.denot = match std::mem::replace(&mut self.denot, LocalDenot::Unknown) {
            LocalDenot::States(mut states) if allowed && self.global.incremental() => {
                let stepped = states.step(spec, &entry.op);
                debug_assert!(stepped, "an allowed operation steps the carried set");
                LocalDenot::States(states)
            }
            _ => LocalDenot::Unknown,
        };
        self.local.push_entry(entry);
    }
}
