//! First-class nested transaction scopes (§6.2 "checkpoints" and "open
//! nesting", and the Börger–Schewe multi-level transaction control
//! model).
//!
//! A [`crate::handle::TxnHandle`] carries a stack of `ScopeFrame`s
//! over its *flat* local log `L`: frame `k` owns the log suffix starting
//! at its `base_len`. Keeping `L` flat is what makes closed nesting
//! observationally free — every PUSH/PULL/CMT criterion evaluates the
//! same flat log a scope-free run would have produced, so flat and
//! closed-nested executions are bit-identical in commits, traces and
//! audit ledgers (the golden nesting suite pins this down).
//!
//! * A **closed** scope that commits simply *merges*: its frame pops and
//!   its entries become ordinary entries of the enclosing transaction.
//! * A **closed** scope that aborts rewinds only its own suffix (UNAPP /
//!   UNPUSH of just those entries) — the partial-abort/checkpoint
//!   mechanism, now shared with `CheckpointOptimistic`.
//! * An **open** scope commits *straight to `G`* as an independent
//!   transaction (PUSH + CMT of its suffix under its own [`TxnId`]) and
//!   registers a `Compensation` — the inverse program derived from the
//!   spec's [`crate::spec::SeqSpec::inverse`] oracle — in the enclosing
//!   scope's compensation set. If the enclosing transaction later
//!   aborts, the handle replays the registered compensations in reverse
//!   registration order as new top-level transactions, restoring the
//!   abstract state the committed children had changed.

use crate::lang::Code;
use crate::op::TxnId;
use crate::spec::SeqSpec;

/// The nesting discipline of a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScopeKind {
    /// Closed nesting: the child's effects stay in the parent's local
    /// log; a child commit merges into the parent, a child abort rewinds
    /// only the child's suffix.
    Closed,
    /// Open nesting: the child commits to the shared log immediately as
    /// its own transaction; the parent holds a compensating inverse
    /// program to undo it if the parent aborts.
    Open,
}

/// How a scope came into being, which determines what happens to the
/// thread's code when the scope exits.
#[derive(Debug, Clone)]
pub(crate) enum ScopeOrigin<M> {
    /// Entered by peeling a syntactic `tx`/`otx` redex
    /// ([`Code::peel_scope`]): the thread's code was swapped to the
    /// scope body, and `cont` is restored on exit. `body` is kept for
    /// abort-retry reconstruction and the open child's committed record.
    Peeled {
        /// The scope body as peeled (for retry and the committed record).
        body: Code<M>,
        /// The code sequenced after the scope, restored on exit.
        cont: Code<M>,
    },
    /// Opened explicitly ([`crate::handle::TxnHandle::begin_nested`] /
    /// checkpoint markers): no code swap happened — the scope is a
    /// marker over the log suffix, and exit leaves the code alone.
    Explicit,
}

/// One entry of the scope stack: a nested transaction in flight.
#[derive(Debug)]
pub(crate) struct ScopeFrame<S: SeqSpec> {
    /// Closed or open nesting.
    pub(crate) kind: ScopeKind,
    /// Peeled from syntax or opened explicitly.
    pub(crate) origin: ScopeOrigin<S::Method>,
    /// `local.len()` at entry: entries `[base_len..]` belong to this
    /// scope (and, transitively, its children).
    pub(crate) base_len: usize,
    /// `stack.len()` at entry, truncated back on a scope abort.
    pub(crate) stack_len: usize,
    /// For open scopes, the child's own transaction id (operations
    /// applied inside carry it); unused for closed scopes.
    pub(crate) txn: Option<TxnId>,
}

// Manual Clone: the derive would demand `S: Clone`, but only the
// associated `Method` (already `Clone` by the `SeqSpec` bounds) is held.
impl<S: SeqSpec> Clone for ScopeFrame<S> {
    fn clone(&self) -> Self {
        Self {
            kind: self.kind,
            origin: self.origin.clone(),
            base_len: self.base_len,
            stack_len: self.stack_len,
            txn: self.txn,
        }
    }
}

/// A compensating transaction registered by a committed open-nested
/// child, pending until its enclosing scope resolves: discarded when the
/// encloser commits, replayed (most recent first) when it aborts.
#[derive(Debug)]
pub(crate) struct Compensation<S: SeqSpec> {
    /// The committed open-nested child this compensation undoes.
    pub(crate) undoes: TxnId,
    /// Height of the *enclosing* scope's frame stack at registration
    /// (0 = the root transaction). The compensation fires when the
    /// stack drops below this height through an abort.
    pub(crate) depth: usize,
    /// The inverse program in execution order (the child's state-changing
    /// operations inverted and reversed).
    pub(crate) ops: Vec<(S::Method, S::Ret)>,
}

impl<S: SeqSpec> Clone for Compensation<S> {
    fn clone(&self) -> Self {
        Self {
            undoes: self.undoes,
            depth: self.depth,
            ops: self.ops.clone(),
        }
    }
}

/// A snapshot of the machine-wide nesting counters (see
/// [`crate::machine::Machine::nesting_stats`]): scope traffic and
/// compensation activity, flowing through `SystemStats` → sweeps →
/// watchdog like the lock tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NestingStats {
    /// Scopes entered (peeled, explicit, and checkpoint markers).
    pub scopes_opened: u64,
    /// Closed scopes merged into their parent on commit.
    pub scopes_merged: u64,
    /// Scopes aborted (their suffix rewound without killing the parent).
    pub scopes_aborted: u64,
    /// Open-nested children committed straight to `G`.
    pub open_commits: u64,
    /// Compensating transactions replayed by aborting parents.
    pub compensations_replayed: u64,
    /// Inverse operations derived by the undo oracle on abort paths
    /// (boosting's undo-log accounting and compensation planning).
    pub undo_inverses: u64,
}
