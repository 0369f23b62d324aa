//! The carried local denotation of a [`TxnHandle`].
//!
//! APP (ii), PULL (ii) and UNPULL (i) are `allowed` queries over the
//! *local* log. The handle keeps `⟦L⟧` beside `L` (`LocalDenot`, a
//! [`StateSet`] — one inline state for every deterministic spec), so each
//! is one step of that set rather than a replay of `L`: an append installs
//! the stepped set; removing the tail keeps only the fact that `L` was
//! allowed, which by prefix closure answers the next UNPULL at the tail;
//! anything else replays `L` once, lazily. [`TxnHandle::app_method`] and
//! [`TxnHandle::app_auto`] pick a return value by stepping `⟦L⟧` by each
//! candidate, so the `⟦L · op⟧` that proved the pick allowed *is* APP
//! (ii)'s evaluation: APP tallies its query and installs that set instead
//! of stepping a second time. Each rule firing is still exactly one
//! audited `allowed` query, and [`GlobalState::set_incremental`]`(false)`
//! switches the carried set off with the shards' prefix caches — the
//! full-replay reference, which evaluates the pick and the criterion
//! separately.

use std::borrow::Cow;

use crate::error::{MachineError, MachineResult};
use crate::lang::dedup_in_place;
use crate::log::LocalEntry;
use crate::op::{Op, OpId};
use crate::spec::{SeqSpec, StateSet};

use super::TxnHandle;

/// A return value with the `⟦L · op⟧` that proves `L` allows it.
type Allowed<S> = (<S as SeqSpec>::Ret, StateSet<<S as SeqSpec>::State>);

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
    /// (APP criterion (ii) candidates), in the order the states of `⟦L⟧`
    /// first offer them — reproducible, since a [`StateSet`] iterates in
    /// insertion order.
    pub fn allowed_results(&self, method: &S::Method) -> MachineResult<Vec<S::Ret>> {
        let states = self.local_denotation();
        Ok(self.allowed_from(&states, method).map(|(r, _)| r).collect())
    }

    /// Every return value `r` that `method` can observe in some state of
    /// `states` (= `⟦L⟧`) and that the whole set allows, each with the
    /// `⟦L · ⟨method, r⟩⟧` that proves it — evaluated lazily, one candidate
    /// per `next()`.
    fn allowed_from<'s>(
        &'s self,
        states: &'s StateSet<S::State>,
        method: &'s S::Method,
    ) -> impl Iterator<Item = Allowed<S>> + 's {
        let spec = self.global.spec();
        // The first state's own `Vec` of results is the candidate list.
        let mut offered = states.iter().map(|s| spec.results(s, method));
        let mut candidates = offered.next().unwrap_or_default();
        dedup_in_place(&mut candidates);
        for r in offered.flatten() {
            if !candidates.contains(&r) {
                candidates.push(r);
            }
        }
        candidates.into_iter().filter_map(move |ret| {
            // The id never reaches the spec: denotations read method and
            // return only.
            let op = Op::new(OpId(u64::MAX), self.txn, method.clone(), ret);
            let next = spec.denote_from(states, std::slice::from_ref(&op));
            (!next.is_empty()).then_some((op.ret, next))
        })
    }

    /// The first return value `L` allows `method` to observe — what
    /// [`Self::app_method`] and [`Self::app_auto`] apply — with the
    /// `⟦L · ⟨method, r⟩⟧` that proved it allowed.
    pub(super) fn first_allowed(&mut self, method: &S::Method) -> MachineResult<Allowed<S>> {
        self.carry();
        let states = self.local_denotation();
        let first = self.allowed_from(&states, method).next();
        first.ok_or(MachineError::NoAllowedResult(self.tid))
    }

    // ------------------------------------------------------------------
    // The carried local denotation: `⟦L⟧` kept beside `L`, so the local
    // criteria step it by one operation instead of replaying `L`. Every
    // change to `L` goes through `append_local` or leaves `denot` what
    // `without_tail` allows; `set_incremental(false)` ignores it and is
    // the full-replay reference.
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
            None => Cow::Owned(self.global.spec().denote_refs(self.local_ops())),
        }
    }

    /// With the incremental path on, makes sure `⟦L⟧` is carried: one
    /// replay of `L` if a removal (or a reset — `⟦ε⟧` is the initial
    /// states) dropped it.
    fn carry(&mut self) {
        let spec = self.global.spec();
        if self.global.incremental() && !matches!(self.denot, LocalDenot::States(_)) {
            self.denot = LocalDenot::States(spec.denote_refs(self.local_ops()));
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
    /// (ii): `⟦L · op⟧` if it is non-empty. `proved` is that set when the
    /// caller's choice of `op` already evaluated it over the carried `⟦L⟧`
    /// ([`Self::first_allowed`]); otherwise the carried `⟦L⟧` is stepped by
    /// `op` here, or `L · op` replayed in full with the incremental path
    /// off. The query is tallied the same either way.
    pub(super) fn local_allows(
        &mut self,
        op: &Op<S::Method, S::Ret>,
        proved: Option<StateSet<S::State>>,
    ) -> Option<StateSet<S::State>> {
        self.global.counters.audit.count_allowed();
        self.carry();
        let spec = self.global.spec();
        let step = |states| spec.denote_from(states, std::slice::from_ref(op));
        let next = match (proved, self.carried()) {
            (Some(next), carried) => {
                debug_assert!(carried.is_some_and(|states| next == step(states)));
                next
            }
            (None, Some(states)) => step(states),
            (None, None) => spec.denote_refs(self.local_ops().chain(std::iter::once(op))),
        };
        (!next.is_empty()).then_some(next)
    }

    /// Appends `entry` to `L`; `next` is `⟦L · entry⟧` if the rule
    /// evaluated it.
    pub(super) fn append_local(
        &mut self,
        entry: LocalEntry<S::Method, S::Ret>,
        next: Option<StateSet<S::State>>,
    ) {
        self.local.push_entry(entry);
        self.denot = next.map_or(LocalDenot::Unknown, LocalDenot::States);
    }
}
