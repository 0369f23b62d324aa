//! The log part of [`GlobalState`]: the shared log `G` as footprint shards
//! with their committed-prefix caches, the stamp generator, the sticky
//! coarse flag, the committed-transaction list and the incremental switch
//! — and the critical sections the shared rules run in over them.
//!
//! ## The footprint-sharded log
//!
//! `G` is partitioned into `N` *footprint-addressed shards*, each a
//! `ShardLog` behind its own [`Mutex`]: a segment of the global log
//! (its own `gUCmt`/`gCmt` entries, each paired with its *commit-sequence
//! stamp*) and its own committed-prefix denotation cache. An operation is
//! routed to shard `key % N` by [`SeqSpec::method_keys`], the declared
//! footprint of its method. Two operations with disjoint footprints are
//! both-movers (Def 4.1 — the declared law, validated against the
//! exhaustive mover oracle by
//! [`disjoint_commute_violations`](crate::spec::disjoint_commute_violations)),
//! so the PUSH/UNPUSH criteria of one never need to inspect entries that
//! live on another shard: disjoint-access parallelism, straight from the
//! paper's mover theory.
//!
//! Every append mints a stamp from one global `AtomicU64` *while holding
//! the shard lock*, so stamps are strictly increasing within a shard and
//! totally order all appends across shards. Merging the shards by stamp
//! reconstructs the exact single-log `G` order — that merged order is
//! what [`GlobalState::global_snapshot`] hands the serializability
//! oracle, and what the coarse evaluation path replays.
//!
//! ## Routing and the sticky coarse fallback
//!
//! `GlobalState::route` maps a method to a `Route`:
//!
//! * With one shard (the default), *everything* routes to shard 0 before
//!   `method_keys` is even consulted — bit-identical to the historical
//!   single-mutex machine, golden traces and audit counts
//!   included.
//! * With `N > 1` shards, a method declaring exactly one footprint key
//!   `k` routes to shard `k % N`; a method with no declared footprint
//!   (or a multi-key footprint) routes `Route::Coarse`.
//!
//! The first coarse-routed operation sets a *sticky* flag: from then on
//! every criteria evaluation acquires **all** shard locks in ascending
//! index order (the canonical lock order — no deadlocks) and evaluates
//! over the stamp-merged log, a sound degradation to the single-lock
//! semantics. The flag is set (SeqCst) *before* any lock is taken and a
//! single-shard acquirer re-checks it after locking, so no evaluation can
//! miss a coarse entry: the coarse thread's flag store happens-before its
//! shard unlock, which happens-before any later acquirer's lock.
//!
//! ## Incremental `allowed` (two cached points per footprint class)
//!
//! PUSH (iii) asks `allowed (G · op)` and UNPUSH (ii) `allowed (G ∖ op)`.
//! By footprint law 2 (`allowed` factorizes over key classes —
//! [`factorization_violations`](crate::spec::factorization_violations))
//! and the invariant that `G` itself is always allowed, the answer depends
//! on the operation's own key class alone. So **lock granularity is
//! `key % N`, cache granularity is the key** (DESIGN.md §9 "Cache
//! granularity" has the argument). The class of a method is its single
//! declared key when `N > 1` and the one class `0` when `N = 1`, and shard
//! = class mod `N`: routing and caching are one decision (`class_in`),
//! which never consults `method_keys` on a single-shard machine.
//!
//! Each shard's `PrefixCache` keeps two points per class `k`:
//! `classes[k] = ⟦G_i[..len]|k⟧` at `len`, the end of the longest fully
//! committed prefix (an absent class denotes `⟦ε⟧`), and `ends[k] =
//! ⟦G_i|k⟧` at the end of the whole segment. Both are owned and only ever
//! stepped forward, so both are stepped *in place* ([`StateSet::step`]).
//! A PUSH of class `k` *checks* `ends[k]` against its own operation, or
//! else `classes[k]` replayed over the suffix entries of its class — the
//! kernel stays pure, and a denial costs no copy. A class-local pass says
//! so in the kernel's verdict, and `GlobalState::append_push` then steps
//! `ends[k]` in place under the same lock, seeding it from that replay
//! when the class has none: one copy of the class's state per run of
//! pushes, not one per push. UNPUSH (ii) replays `classes[k]` over the
//! suffix without its entry. The denotation is compositional, so the
//! verdicts — and the audit counts, which count queries — are those of the
//! full replay, and a `debug_assert!` re-checks every end set a PUSH starts
//! from. When a CMT leaves the shard fully committed, each `ends[k]` *is*
//! the new `classes[k]` and moves there with no spec step; only classes
//! without an end set are folded, each in place.
//!
//! The scans that by the all-committed invariant concern only entries
//! past `len` start there too: PUSH (ii)'s foreign-uncommitted mover
//! loop, UNPUSH's lookup of its (uncommitted) entry, CMT's flag flips;
//! UNPUSH (i) starts right after the entry it located.
//!
//! A multi-shard (coarse) view and [`GlobalState::set_incremental`]`(false)`
//! skip every cache: the merged (or the one shard's) log is replayed in
//! full from position 0 — the reference the differential tests compare
//! against. Neither answers class-locally, so neither steps an end set,
//! and neither reads one. A method with no single-key footprint has
//! no class; entries of one exist only once the sticky coarse flag is set,
//! after which no cache is read again.
//!
//! Invalidation rules, per shard — an end set, where present, is always
//! `⟦G_i|k⟧`, whichever path evaluates:
//!
//! * PUSH appends — the cached prefix is untouched. An append whose PUSH
//!   (iii) passed class-locally steps its class's end set; any other —
//!   `Unchecked` mode, `set_incremental(false)`, a coarse multi-shard view,
//!   a compensation — drops it. Other classes' end sets are untouched:
//!   `G_i|j` did not change.
//! * CMT flips flags in place and never reorders — flags are not part of
//!   the denotation, so both points stay valid and the cache is then
//!   *advanced*: when the shard is fully committed the end sets move into
//!   `classes`; otherwise each newly committed entry at the boundary is
//!   folded into its own class.
//! * UNPUSH removes an *uncommitted* entry, which by the all-committed
//!   invariant lies at or past `len`; the committed prefix is untouched
//!   and the shard's end sets are dropped. A removal inside the cached
//!   prefix (impossible through the rule API) resets the whole cache
//!   defensively.
//! * Resharding rebuilds every shard without end sets; a deep clone
//!   copies them.
//!
//! ## Log memory
//!
//! A shard's segment is one `Vec` of `(stamp, entry)` in append order:
//! UNPUSH removes by position, and the criteria replay iterates cursors
//! over it instead of collecting `Vec`s.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use crate::audit::CachePadded;
use crate::log::{GlobalEntry, GlobalFlag, GlobalLog, LocalEntry};
use crate::op::{Op, OpId};
use crate::smallvec::SmallVec;
use crate::spec::{SeqSpec, StateSet};

use super::{unpoisoned, CommittedTxn, GlobalState};

/// A map keyed by footprint class, hashed with [`ClassHasher`].
type ClassMap<V> = HashMap<u64, V, BuildHasherDefault<ClassHasher>>;

/// A fixed multiplicative hash for the caches' `u64` class keys: one
/// multiply and a rotation per lookup, where `RandomState`'s SipHash runs
/// a dozen rounds. The rotation brings the product's well-mixed high bits
/// down to where the table takes its bucket index — every class on a
/// shard shares its low bits (shard = class mod `N`). Not keyed, so not
/// flooding-resistant: class keys come from in-process specs (DESIGN.md
/// §9, "The class-key hasher").
#[derive(Default)]
struct ClassHasher(u64);

impl Hasher for ClassHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Memoized denotations of a shard's log segment, two points per footprint
/// class: at the end of its longest fully committed prefix, and at the end
/// of the whole segment (see the module docs).
#[derive(Debug, Clone)]
struct PrefixCache<St> {
    /// Entries `[..len]` of the shard log are all committed.
    len: usize,
    /// `⟦ε⟧` — what a class absent from `classes` denotes.
    initial: StateSet<St>,
    /// `⟦G_i[..len]|k⟧` for every class `k` with an entry in `G_i[..len]`.
    classes: ClassMap<StateSet<St>>,
    /// `⟦G_i|k⟧` over the whole segment, for every class `k` whose last
    /// append passed its PUSH (iii) class-locally.
    ends: ClassMap<StateSet<St>>,
}

impl<St: PartialEq> PrefixCache<St> {
    fn new(initial: StateSet<St>) -> Self {
        Self {
            len: 0,
            initial,
            classes: ClassMap::default(),
            ends: ClassMap::default(),
        }
    }

    fn reset(&mut self) {
        self.len = 0;
        self.classes.clear();
        self.ends.clear();
    }

    /// `⟦G_i[..len]|class⟧`.
    fn class(&self, class: u64) -> &StateSet<St> {
        self.classes.get(&class).unwrap_or(&self.initial)
    }
}

/// A global entry paired with its commit-sequence stamp (owned).
type StampedEntry<S> = (
    u64,
    GlobalEntry<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>,
);

/// A global entry paired with its commit-sequence stamp (borrowed from a
/// held shard view).
type StampedEntryRef<'a, S> = (
    u64,
    &'a GlobalEntry<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>,
);

/// One footprint shard of the global log: a segment of `G` in append
/// (= stamp) order with its own committed-prefix cache. Everything the
/// shared rules read-modify on this shard sits behind one mutex in
/// [`GlobalState::shards`].
#[derive(Debug)]
pub(crate) struct ShardLog<S: SeqSpec> {
    /// `(stamp, entry)` in append order. Stamps are strictly increasing
    /// within a shard (minted under the shard lock); merging all shards
    /// by stamp reconstructs the total append order of `G`.
    entries: Vec<StampedEntry<S>>,
    /// The committed-prefix denotation cache for this segment.
    cache: PrefixCache<S::State>,
}

// Manual impl: a derived `Clone` would demand `S: Clone`, which nothing
// in the fields (method/ret/state types are `Clone` by the `SeqSpec`
// bounds) actually needs.
impl<S: SeqSpec> Clone for ShardLog<S> {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
            cache: self.cache.clone(),
        }
    }
}

impl<S: SeqSpec> ShardLog<S> {
    /// A shard over stamp-ordered entries (empty, or resharded).
    fn from_stamped(entries: Vec<StampedEntry<S>>, initial: StateSet<S::State>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "stamps must be strictly increasing within a shard"
        );
        Self {
            entries,
            cache: PrefixCache::new(initial),
        }
    }

    /// Number of entries in this shard's segment.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries in shard (= stamp) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> + '_ {
        self.entries.iter().map(|(_, e)| e)
    }

    /// The entries from position `pos` on, in shard order (the suffix
    /// cursor the incremental criteria replay).
    fn iter_from(&self, pos: usize) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> + '_ {
        self.entries[pos.min(self.entries.len())..]
            .iter()
            .map(|(_, e)| e)
    }

    /// The entry at `pos` in shard order.
    fn entry_at(&self, pos: usize) -> &GlobalEntry<S::Method, S::Ret> {
        &self.entries[pos].1
    }

    /// The stamp of the entry at `pos`.
    fn stamp_at(&self, pos: usize) -> u64 {
        self.entries[pos].0
    }

    /// Position of the entry with `id` in shard order. Asked for by
    /// UNPUSH, whose entry is uncommitted: the suffix past the committed
    /// boundary is searched first, the prefix only as a fallback.
    fn position(&self, id: OpId) -> Option<usize> {
        let (committed, suffix) = self.entries.split_at(self.cache.len);
        let at = |part: &[StampedEntry<S>]| part.iter().position(|(_, e)| e.op.id == id);
        at(suffix)
            .map(|p| committed.len() + p)
            .or_else(|| at(committed))
    }

    /// The entry with `id`, if present.
    pub(crate) fn entry(&self, id: OpId) -> Option<&GlobalEntry<S::Method, S::Ret>> {
        self.iter().find(|e| e.op.id == id)
    }

    /// Appends an uncommitted entry with `stamp` (the PUSH effect).
    fn push_uncommitted(&mut self, stamp: u64, op: Op<S::Method, S::Ret>) {
        debug_assert!(
            self.entries.last().is_none_or(|(s, _)| *s < stamp),
            "stamps must be strictly increasing within a shard"
        );
        let flag = GlobalFlag::Uncommitted;
        self.entries.push((stamp, GlobalEntry { op, flag }));
    }

    /// Removes the entry at `pos` (the effect of an UNPUSH on this
    /// shard), dropping the end-of-log sets. An uncommitted entry lies at
    /// or past the cache boundary; a removal below it — impossible through
    /// the rule API — resets the cache defensively.
    fn remove_at(&mut self, pos: usize) {
        self.entries.remove(pos);
        self.cache.ends.clear();
        if pos < self.cache.len {
            self.cache.reset();
        }
    }

    /// Flips every uncommitted entry whose id is in `own` (ascending) to
    /// committed, pushing `(stamp, id)` per flip onto `flipped`, if given
    /// (the CMT effect on this shard). Every uncommitted entry lies at or
    /// past `cache.len` (the all-committed invariant of the cached prefix),
    /// so the walk starts there.
    fn commit_local(&mut self, own: &[OpId], mut flipped: Option<&mut Vec<(u64, OpId)>>) {
        let from = self.cache.len.min(self.entries.len());
        debug_assert!(
            self.entries[..from]
                .iter()
                .all(|(_, e)| e.flag == GlobalFlag::Committed),
            "the cached prefix is all committed"
        );
        for (stamp, e) in &mut self.entries[from..] {
            if e.flag == GlobalFlag::Uncommitted && own.binary_search(&e.op.id).is_ok() {
                e.flag = GlobalFlag::Committed;
                if let Some(flipped) = flipped.as_deref_mut() {
                    flipped.push((*stamp, e.op.id));
                }
            }
        }
    }

    /// Steps class `class`'s end-of-log set in place by `op`, whose PUSH
    /// (iii) the kernel has just passed class-locally, before `op` is
    /// appended (under a layout of `n` shards). A class without one seeds
    /// it from its committed-prefix set replayed over the class's suffix —
    /// the one copy of the class's state a run of pushes makes.
    fn step_end(&mut self, spec: &S, n: usize, class: u64, op: &Op<S::Method, S::Ret>) {
        let PrefixCache {
            len,
            initial,
            classes,
            ends,
        } = &mut self.cache;
        let end = ends.entry(class).or_insert_with(|| {
            let suffix = self.entries[*len..].iter().map(|(_, e)| &e.op);
            let of_class = suffix.filter(|o| class_in(spec, n, &o.method) == Some(class));
            spec.denote_from_refs(classes.get(&class).unwrap_or(initial), of_class)
        });
        let stepped = end.step(spec, op);
        debug_assert!(
            stepped,
            "the kernel checked that class {class} allows the op"
        );
    }

    /// Advances the cache (of a layout of `n` shards) over the newly
    /// committed prefix, stepping each entry's own class in place. When that
    /// prefix is the whole segment, a class's end-of-log set *is* its new
    /// committed-prefix set: it moves into `classes`, and only the entries
    /// of classes without one are folded. An entry without a class exists
    /// only once the sticky coarse flag is set, after which no cache is
    /// read; the boundary still moves past it (the uncommitted-only scans
    /// start there at any routing). Called under the shard lock (after
    /// CMT) and on resharding.
    fn advance_cache(&mut self, spec: &S, n: usize) {
        let pending = &self.entries[self.cache.len..];
        let whole = pending.iter().all(|(_, e)| e.flag == GlobalFlag::Committed);
        let PrefixCache {
            len,
            initial,
            classes,
            ends,
        } = &mut self.cache;
        for (_, e) in pending {
            if e.flag != GlobalFlag::Committed {
                break;
            }
            let class = class_in(spec, n, &e.op.method);
            if let Some(class) = class.filter(|k| !(whole && ends.contains_key(k))) {
                let states = classes.entry(class).or_insert_with(|| initial.clone());
                if !states.step(spec, &e.op) {
                    *states = StateSet::new();
                }
            }
            *len += 1;
        }
        if whole {
            classes.extend(ends.drain());
        }
    }
}

/// Where a method's criteria evaluation must go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The method's declared footprint confines it to one shard.
    Single(usize),
    /// No (or a multi-key) footprint: the operation concerns the whole
    /// log. Evaluation acquires every shard (ascending) and the sticky
    /// coarse flag is set.
    Coarse,
}

impl Route {
    /// The shard a routed operation is *appended* to. Coarse operations
    /// live on shard 0; soundness does not depend on the choice because
    /// once the coarse flag is set every evaluation merges all shards.
    pub(crate) fn target(self) -> usize {
        match self {
            Route::Single(i) => i,
            Route::Coarse => 0,
        }
    }
}

/// A set of held shard locks — the critical section of a shared rule.
/// Shards are always held in ascending index order (the canonical lock
/// order). A view over a single shard evaluates criteria with that
/// shard's incremental cache; a view over several evaluates over the
/// stamp-merged log.
///
/// A held section over a transaction's shard set (see [`crate::group`])
/// *focuses* the view on one held shard for the span of a PUSH or UNPUSH:
/// everything the criteria kernel reads — [`Self::live`], [`Self::denote`],
/// [`Self::find`] — is then that shard alone, exactly what the rule would
/// have read under its own route's lock.
#[derive(Debug)]
pub(crate) struct LogView<'a, S: SeqSpec> {
    /// `(shard index, guard)`, ascending; inline up to four, so a routed
    /// rule's section and a held commit over a few keys allocate nothing.
    shards: SmallVec<(usize, MutexGuard<'a, ShardLog<S>>), 4>,
    /// View index of the focused shard, if any.
    focus: Option<usize>,
}

impl<'a, S: SeqSpec> LogView<'a, S> {
    /// The view indices the kernel reads: the focused shard, or all held.
    fn scope(&self) -> std::ops::Range<usize> {
        match self.focus {
            Some(k) => k..k + 1,
            None => 0..self.shards.len(),
        }
    }

    /// Runs `body` with the view focused on held shard `shard`.
    ///
    /// Invariant: `shard` is held. A held section's shard set is
    /// `TxnHandle::held_shards` — the routes of its transaction's own
    /// operations, the only ones a held PUSH/UNPUSH is about — so the
    /// lookup cannot miss. Were it to, the view stays unfocused and
    /// nothing is corrupted: an UNPUSH does not find its entry
    /// (`NoSuchOp`), and a PUSH stops at `append_push`'s own held-target
    /// check before anything is written.
    fn focused<R>(&mut self, shard: usize, body: impl FnOnce(&mut Self) -> R) -> R {
        self.focus = self.shards.iter().position(|(i, _)| *i == shard);
        debug_assert!(self.focus.is_some(), "held section lacks shard {shard}");
        let out = body(self);
        self.focus = None;
        out
    }

    /// All viewed entries with their stamps, in stamp order, as a k-way
    /// cursor merge over the viewed shards — no collection, no sort (each
    /// shard is already stamp-ordered). For a single shard this
    /// degenerates to a plain cursor walk.
    pub(crate) fn stamped(&self) -> StampedIter<'_, 'a, S> {
        self.stamped_from(|_| 0)
    }

    /// [`Self::stamped`] with each shard's cursor started at `start(shard)`.
    fn stamped_from(&self, start: impl Fn(&ShardLog<S>) -> usize) -> StampedIter<'_, 'a, S> {
        let shards = &self.shards[self.scope()];
        StampedIter {
            shards,
            pos: shards.iter().map(|(_, sh)| start(sh)).collect(),
        }
    }

    /// Finds an entry by op id across the viewed shards.
    pub(crate) fn entry(&self, id: OpId) -> Option<&GlobalEntry<S::Method, S::Ret>> {
        self.shards[self.scope()]
            .iter()
            .find_map(|(_, sh)| sh.entry(id))
    }

    /// Locates an entry by op id: `(view index, position in shard)`.
    pub(crate) fn find(&self, id: OpId) -> Option<(usize, usize)> {
        self.scope()
            .find_map(|v| self.shards[v].1.position(id).map(|p| (v, p)))
    }

    /// Removes the entry at `(view index, position)`, as located by
    /// [`Self::find`] (the UNPUSH effect).
    pub(crate) fn remove(&mut self, (vidx, pos): (usize, usize)) {
        self.shards[vidx].1.remove_at(pos);
    }

    /// The entry at `(view index, position)`, as located by [`Self::find`].
    pub(crate) fn at(&self, vidx: usize, pos: usize) -> &GlobalEntry<S::Method, S::Ret> {
        self.shards[vidx].1.entry_at(pos)
    }

    /// How many end-of-log sets the viewed shards hold (for the tests that
    /// show their evaluations reach them).
    #[cfg(test)]
    pub(crate) fn end_sets(&self) -> usize {
        let viewed = self.shards[self.scope()].iter();
        viewed.map(|(_, sh)| sh.cache.ends.len()).sum()
    }

    /// Empties every end-of-log set behind the cache's back (for the test
    /// that shows which evaluations read them).
    #[cfg(test)]
    pub(crate) fn poison_end_sets(&mut self) {
        let ends = self
            .shards
            .iter_mut()
            .flat_map(|(_, sh)| sh.cache.ends.values_mut());
        ends.for_each(|end| *end = StateSet::new());
    }

    /// Flips every held entry of `local`'s pushed operations to committed
    /// (the `cmt` predicate restricted to the held shards). With `ids`,
    /// returns the flipped ids in global stamp order — identical to the
    /// single-log flip order at any shard count — and otherwise nothing.
    /// The pushed ids are gathered and sorted once, so each shard entry is
    /// one binary search.
    fn commit_local(&mut self, local: &[LocalEntry<S::Method, S::Ret>], ids: bool) -> Vec<OpId> {
        let pushed = local.iter().filter(|l| l.flag.is_pushed());
        let mut own: SmallVec<OpId, 8> = pushed.map(|l| l.op.id).collect();
        own.sort_unstable();
        let mut flipped: Vec<(u64, OpId)> = Vec::new();
        for (_, sh) in &mut self.shards {
            sh.commit_local(&own, ids.then_some(&mut flipped));
        }
        flipped.sort_by_key(|(s, _)| *s);
        flipped.into_iter().map(|(_, id)| id).collect()
    }
}

/// Allocation-free stamp-ordered merge over a view's shards: one cursor
/// per shard, advancing the minimum stamp each step (stamps are globally
/// unique, so the merge is deterministic).
pub(crate) struct StampedIter<'v, 'a, S: SeqSpec> {
    shards: &'v [(usize, MutexGuard<'a, ShardLog<S>>)],
    /// One cursor per viewed shard; inline up to 16 shards, so iterating
    /// any single- or CMT-width view allocates nothing.
    pos: SmallVec<usize, 16>,
}

impl<'v, S: SeqSpec> Iterator for StampedIter<'v, '_, S> {
    type Item = StampedEntryRef<'v, S>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(usize, u64)> = None;
        for (k, (_, sh)) in self.shards.iter().enumerate() {
            let p = self.pos[k];
            if p < sh.len() {
                let s = sh.stamp_at(p);
                if best.is_none_or(|(_, bs)| s < bs) {
                    best = Some((k, s));
                }
            }
        }
        let (k, s) = best?;
        let e = self.shards[k].1.entry_at(self.pos[k]);
        self.pos[k] += 1;
        Some((s, e))
    }
}

impl<S: SeqSpec> LogView<'_, S> {
    /// Every viewed entry, in stamp order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> {
        self.stamped().map(|(_, e)| e)
    }

    /// Every viewed *uncommitted* entry, in stamp order — what PUSH (ii)
    /// scans. All of them lie at or past their shard's committed boundary,
    /// so the cursors start there (at 0 on the full-replay reference
    /// path, which trusts no cache field).
    pub(crate) fn uncommitted(
        &self,
        global: &GlobalState<S>,
    ) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> {
        let cached = global.incremental();
        let from_boundary = self.stamped_from(move |sh| if cached { sh.cache.len } else { 0 });
        from_boundary
            .map(|(_, e)| e)
            .filter(|e| e.flag == GlobalFlag::Uncommitted)
    }

    /// Every viewed entry stamped after the one at `(view index,
    /// position)`, in stamp order — what UNPUSH (i) scans. Stamps are
    /// strictly increasing within a shard, so each cursor starts by
    /// binary search (on the entry's own shard: right behind it).
    pub(crate) fn after(
        &self,
        (vidx, pos): (usize, usize),
    ) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> {
        let stamp = self.shards[vidx].1.stamp_at(pos);
        let later = self.stamped_from(|sh| sh.entries.partition_point(|(s, _)| *s <= stamp));
        later.map(|(_, e)| e)
    }

    /// PUSH (iii): does `G` allow `op` — and was that answered
    /// class-locally, so that [`GlobalState::append_push`] steps the
    /// end-of-log set of `op`'s class? A coarse or full-replay evaluation
    /// is not: its states are not one class's.
    pub(crate) fn allows(
        &self,
        global: &GlobalState<S>,
        op: &Op<S::Method, S::Ret>,
    ) -> (bool, bool) {
        self.replay(global, &op.method, None, Some(op))
    }

    /// UNPUSH (ii): is `G` without the entry at `(view index, position)`,
    /// as located by [`Self::find`], still allowed?
    pub(crate) fn allowed_without(&self, global: &GlobalState<S>, at: (usize, usize)) -> bool {
        let method = &self.at(at.0, at.1).op.method;
        self.replay(global, method, Some(at), None).0
    }

    /// Is `(G ∖ skip) · then` allowed, as far as the verdict about an
    /// operation of `method` needs it — and was it evaluated class-locally?
    /// A view of one shard (the only one held, or the focused one) with the
    /// incremental path on starts from a cached set of `method`'s footprint
    /// class: for a PUSH, the class's end-of-log set when the shard has
    /// one, checked against `then` alone; otherwise the committed-prefix
    /// set, replayed over the suffix entries of that class past the shard's
    /// committed boundary (checked where it is, when there are none). A
    /// multi-shard view replays the merged stamp-ordered log in full. The
    /// verdict is the same either way (module docs), and `then` is always
    /// a check, never a step. `skip` is an uncommitted entry, so it lies
    /// past the boundary; if it ever does not (unreachable through the rule
    /// API), fall back to the full replay.
    fn replay(
        &self,
        global: &GlobalState<S>,
        method: &S::Method,
        skip: Option<(usize, usize)>,
        then: Option<&Op<S::Method, S::Ret>>,
    ) -> (bool, bool) {
        let spec = global.spec();
        let allowed = |states: &StateSet<S::State>| match then {
            Some(op) => states.admits(spec, op),
            None => !states.is_empty(),
        };
        let scope = self.scope();
        if scope.len() != 1 {
            let skipped = skip.map(|(vidx, pos)| self.at(vidx, pos).op.id);
            let merged = self.live().filter(|e| Some(e.op.id) != skipped);
            return (allowed(&global.denote_refs(merged.map(|e| &e.op))), false);
        }
        let sh = &self.shards[scope.start].1;
        let skip = skip.map(|(_, pos)| pos);
        let ops_from = |from: usize| {
            let kept = sh.iter_from(from).enumerate();
            kept.filter(move |(k, _)| Some(from + k) != skip)
                .map(|(_, e)| &e.op)
        };
        let cached = global.incremental() && skip.is_none_or(|p| p >= sh.cache.len);
        let Some(class) = global.class_of(method).filter(|_| cached) else {
            return (allowed(&global.denote_refs(ops_from(0))), false);
        };
        let suffix = ops_from(sh.cache.len);
        let mut of_class = suffix
            .filter(|op| global.class_of(&op.method) == Some(class))
            .peekable();
        let verdict = match sh.cache.ends.get(&class).filter(|_| skip.is_none()) {
            Some(end) => {
                debug_assert!(
                    *end == spec.denote_from_refs(sh.cache.class(class), of_class),
                    "the end-of-log set of class {class} is the replay of its suffix"
                );
                allowed(end)
            }
            None if of_class.peek().is_none() => allowed(sh.cache.class(class)),
            None => allowed(&spec.denote_from_refs(sh.cache.class(class), of_class)),
        };
        (verdict, true)
    }
}

/// The footprint class of `method` under a layout of `n` shards: the
/// unit the committed-prefix caches memoize by, and — modulo `n` — the
/// shard the method routes to. With one shard everything is the one class
/// `0` — the footprints are not consulted, so every *criterion* of a
/// single-shard machine is evaluated as on the historical single-lock one
/// even for specs with (or without) footprints. (The lenient refresh —
/// [`GlobalState::committed_except`] — does read `method_keys` at one
/// shard, to choose what to PULL; it is the only thing that does, and it
/// evaluates nothing.) Above one shard it is the method's single declared
/// key; a method with no (or a multi-key) footprint has no class and
/// routes coarse.
fn class_in<S: SeqSpec>(spec: &S, n: usize, method: &S::Method) -> Option<u64> {
    if n == 1 {
        return Some(0);
    }
    match spec.method_keys(method) {
        Some(keys) if keys.len() == 1 => Some(keys[0]),
        _ => None,
    }
}

/// Routes `method` under a layout of `n` shards: class mod `n`.
fn route_in<S: SeqSpec>(spec: &S, n: usize, method: &S::Method) -> Route {
    match class_in(spec, n, method) {
        Some(class) => Route::Single((class % n as u64) as usize),
        None => Route::Coarse,
    }
}

/// The log part. Its fields are laid out in declaration order: the
/// read-mostly shard vector and flags that every rule reads share the
/// first cache line, `push_stamp` owns the second, and the `committed`
/// mutex, which every commit writes, starts the third.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct SharedLog<S: SeqSpec> {
    /// The footprint shards of `G`, each behind its own lock. The count
    /// is fixed at construction (see [`Machine::set_log_shards`]
    /// (crate::machine::Machine::set_log_shards) for resharding).
    pub(super) shards: Vec<Mutex<ShardLog<S>>>,
    /// Sticky coarse-mode flag: set the first time an operation with no
    /// single-key footprint routes, never cleared (for this shard
    /// layout). See the module docs for the memory-ordering argument.
    pub(super) coarse: AtomicBool,
    incremental: AtomicBool,
    /// Mints commit-sequence stamps for appends; fetched under the
    /// destination shard's lock. The fourth generator every thread
    /// writes, on a cache line of its own like the other three.
    pub(super) push_stamp: CachePadded<AtomicU64>,
    /// Committed transactions in global commit order (guarded last in the
    /// lock order: only ever taken while already holding shard locks).
    pub(super) committed: Mutex<Vec<CommittedTxn<S::Method, S::Ret>>>,
}

impl<S: SeqSpec> SharedLog<S> {
    /// An empty log of `n` shards, each cache seeded with `⟦ε⟧ = init`.
    pub(super) fn new(init: &StateSet<S::State>, n: usize) -> Self {
        let empty = || Mutex::new(ShardLog::from_stamped(Vec::new(), init.clone()));
        Self {
            shards: (0..n).map(|_| empty()).collect(),
            coarse: AtomicBool::new(false),
            incremental: AtomicBool::new(true),
            push_stamp: CachePadded(AtomicU64::new(0)),
            committed: Mutex::new(Vec::new()),
        }
    }

    /// A deep copy: every shard with its cache, the flags, the stamp and
    /// the committed list.
    pub(super) fn copy(&self) -> Self {
        let shards = self.shards.iter();
        let copies = shards.map(|m| Mutex::new(unpoisoned(m.lock()).clone()));
        self.over(copies.collect(), self.coarse.load(Ordering::SeqCst))
    }

    /// The same log under a layout of `n` shards: every entry is re-routed
    /// by its method's footprint, stamps and the commit order are
    /// preserved, per-shard caches are re-seeded and advanced, and the
    /// coarse flag is recomputed from the entries actually present.
    pub(super) fn rebuilt(&self, spec: &S, init: &StateSet<S::State>, n: usize) -> Self {
        let mut stamped: Vec<StampedEntry<S>> = Vec::new();
        for m in &self.shards {
            stamped.extend(unpoisoned(m.lock()).entries.iter().cloned());
        }
        stamped.sort_by_key(|(s, _)| *s);
        let mut per: Vec<Vec<StampedEntry<S>>> = (0..n).map(|_| Vec::new()).collect();
        let mut coarse = false;
        for (stamp, entry) in stamped {
            let route = route_in(spec, n, &entry.op.method);
            coarse |= route == Route::Coarse;
            per[route.target()].push((stamp, entry));
        }
        let shards = per.into_iter().map(|seg| {
            let mut sh = ShardLog::from_stamped(seg, init.clone());
            sh.advance_cache(spec, n);
            Mutex::new(sh)
        });
        self.over(shards.collect(), coarse)
    }

    /// A log over `shards` carrying the rest of this one over.
    fn over(&self, shards: Vec<Mutex<ShardLog<S>>>, coarse: bool) -> Self {
        Self {
            shards,
            coarse: AtomicBool::new(coarse),
            incremental: AtomicBool::new(self.incremental.load(Ordering::Relaxed)),
            push_stamp: CachePadded(AtomicU64::new(self.push_stamp.load(Ordering::Relaxed))),
            committed: Mutex::new(unpoisoned(self.committed.lock()).clone()),
        }
    }
}

impl<S: SeqSpec> GlobalState<S> {
    /// Number of footprint shards the log is split into.
    pub fn shard_count(&self) -> usize {
        self.log.shards.len()
    }

    /// Has the sticky coarse fallback been triggered (an operation with
    /// no single-key footprint was routed at a shard count above one)?
    pub fn coarse_mode(&self) -> bool {
        self.log.coarse.load(Ordering::SeqCst)
    }

    /// Is the incremental (prefix-cached) `allowed` path enabled?
    pub fn incremental(&self) -> bool {
        self.log.incremental.load(Ordering::Relaxed)
    }

    /// Switches between incremental and full-replay criteria evaluation.
    /// Both produce identical verdicts and audit counts; full replay is
    /// the reference the golden-trace tests and the differential fuzz
    /// families (`tests/machine_fuzz.rs`, `criteria.rs`) compare the
    /// cached path against.
    pub fn set_incremental(&self, on: bool) {
        self.log.incremental.store(on, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Routing and shard-lock acquisition.
    // ------------------------------------------------------------------

    /// The footprint class of `method` under the current shard layout.
    fn class_of(&self, method: &S::Method) -> Option<u64> {
        class_in(&*self.spec, self.log.shards.len(), method)
    }

    /// Routes `method` under the current shard layout.
    pub(crate) fn route(&self, method: &S::Method) -> Route {
        route_in(&*self.spec, self.log.shards.len(), method)
    }

    /// Locks shard `i`, tallying the acquisition (and whether it had to
    /// wait) in the per-shard lock counters.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, ShardLog<S>> {
        self.counters.lock_acquires.add(i, 1);
        match self.log.shards[i].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.counters.lock_contended.add(i, 1);
                unpoisoned(self.log.shards[i].lock())
            }
            Err(TryLockError::Poisoned(holder_panicked)) => unpoisoned(Err(holder_panicked)),
        }
    }

    /// Locks every shard in ascending index order (the canonical order).
    pub(crate) fn acquire_all(&self) -> LogView<'_, S> {
        self.acquire_shards(0..self.log.shards.len())
    }
    /// Locks the given shards, which must come strictly ascending (the
    /// canonical lock order) — the CMT critical section over exactly the
    /// shards a transaction's operations touch. An empty set yields an
    /// empty view (a commit with nothing in `G` to flip).
    pub(crate) fn acquire_shards(
        &self,
        ascending: impl IntoIterator<Item = usize>,
    ) -> LogView<'_, S> {
        let mut last = None;
        let lock = |i| {
            debug_assert!(last.replace(i).is_none_or(|l| l < i), "lock order");
            (i, self.lock_shard(i))
        };
        LogView {
            shards: ascending.into_iter().map(lock).collect(),
            focus: None,
        }
    }

    /// The critical section for a routed PUSH/UNPUSH: one shard on the
    /// fast path, all shards once the sticky coarse flag is (or gets)
    /// set. The flag is stored *before* any lock is acquired and
    /// re-checked after a single-shard acquisition, so a coarse append
    /// can never be missed by a concurrent single-shard evaluation.
    pub(crate) fn acquire_route(&self, route: Route) -> LogView<'_, S> {
        match route {
            Route::Coarse => {
                self.log.coarse.store(true, Ordering::SeqCst);
                self.acquire_all()
            }
            Route::Single(i) => self.acquire_held([i]),
        }
    }

    /// The section over `shards` — one routed PUSH/UNPUSH's shard, a
    /// refresh's footprint shards, or the shard set of a held commit (see
    /// [`crate::group`]) — or over every shard once the sticky coarse flag
    /// is set: the flag is re-checked *after* locking (see
    /// [`Self::acquire_route`]), so no section evaluates shard-locally past
    /// a coarse append.
    pub(crate) fn acquire_held(&self, shards: impl IntoIterator<Item = usize>) -> LogView<'_, S> {
        if !self.coarse_mode() {
            let view = self.acquire_shards(shards);
            if !self.coarse_mode() {
                return view;
            }
        }
        self.acquire_all()
    }

    /// Runs `body`, one PUSH/UNPUSH in a held section, over `view` as
    /// [`Self::acquire_route`] would show it: focused on the route's shard,
    /// unless `view` holds every shard (as it does for a coarse route,
    /// which sets the sticky flag first) and the flag is set.
    pub(crate) fn in_held<'a, R>(
        &self,
        view: &mut LogView<'a, S>,
        route: Route,
        body: impl FnOnce(&mut LogView<'a, S>) -> R,
    ) -> R {
        if route == Route::Coarse {
            self.log.coarse.store(true, Ordering::SeqCst);
        }
        if view.shards.len() == self.shard_count() && self.coarse_mode() {
            body(view)
        } else {
            view.focused(route.target(), body)
        }
    }

    /// Locates and snapshots a global entry by id, locking one shard at
    /// a time in ascending order (the PULL-by-id snapshot — never holds
    /// two locks at once).
    pub(crate) fn find_entry(&self, id: OpId) -> Option<GlobalEntry<S::Method, S::Ret>> {
        for i in 0..self.log.shards.len() {
            let sh = self.lock_shard(i);
            if let Some(e) = sh.entry(id) {
                return Some(e.clone());
            }
        }
        None
    }

    /// The refresh's candidates: the committed entries of `G` that
    /// `footprint` concerns and `skip` does not exclude (the operations the
    /// caller already holds, and for the lenient refresh committed reads),
    /// in stamp order, snapshotted under one acquisition (each lock taken
    /// exactly once) of the shards that can hold them — a consistent cut
    /// of those shards, the one [`Self::global_snapshot`] takes of all of
    /// them. `skip` runs under those locks, so an excluded entry is never
    /// cloned.
    ///
    /// `footprint` is a set of declared keys, ascending; `None` concerns
    /// everything and locks every shard. An entry is concerned when its
    /// method's declared keys ([`SeqSpec::method_keys`]) meet the set, or
    /// when it declares none. The filter never looks at `key % N`, so it
    /// selects the same operations at every shard count; `N` only decides
    /// the locks — the shards the keys route to, or every shard once the
    /// sticky coarse flag is set, which is the only time a shard other
    /// than a key's own can hold a concerned entry (one without a single
    /// declared key lives on shard 0).
    ///
    /// Membership is by op id, never by a stamp watermark: stamps are
    /// minted at PUSH and commits land later, so an entry can commit
    /// below one already pulled.
    pub(crate) fn committed_except(
        &self,
        footprint: Option<&[u64]>,
        skip: impl Fn(&Op<S::Method, S::Ret>) -> bool,
    ) -> Vec<GlobalEntry<S::Method, S::Ret>> {
        let n = self.log.shards.len() as u64;
        let view = match footprint {
            Some(keys) => {
                let mut shards: Vec<usize> = keys.iter().map(|k| (k % n) as usize).collect();
                shards.sort_unstable();
                shards.dedup();
                self.acquire_held(shards)
            }
            None => self.acquire_all(),
        };
        let concerned = |method: &S::Method| match (footprint, self.spec.method_keys(method)) {
            (Some(keys), Some(declared)) => declared.iter().any(|k| keys.binary_search(k).is_ok()),
            _ => true,
        };
        let fresh = view
            .live()
            .filter(|e| e.flag == GlobalFlag::Committed && concerned(&e.op.method) && !skip(&e.op));
        fresh.cloned().collect()
    }

    /// Appends `op` to shard `target` inside the held view with
    /// commit-sequence `stamp` (the PUSH effect). The stamp is minted by [`Self::reserve_stamps`]
    /// under the shard lock — one at a time, or as a held commit's
    /// contiguous block handed out one append at a time.
    /// `target` is the routed shard ([`Route::target`]), whichever shards
    /// the view holds. `step_end` — PUSH (iii) passed class-locally, see
    /// [`LogView::allows`] — steps class `k`'s end-of-log set in place to
    /// `⟦G|k · op⟧`; an append without it drops the class's end set instead.
    pub(crate) fn append_push(
        &self,
        view: &mut LogView<'_, S>,
        target: usize,
        stamp: u64,
        op: Op<S::Method, S::Ret>,
        step_end: bool,
    ) {
        let class = self.class_of(&op.method);
        let (_, sh) = view
            .shards
            .iter_mut()
            .find(|(i, _)| *i == target)
            .expect("append target shard is held by the view");
        match class {
            Some(class) if step_end => sh.step_end(&*self.spec, self.shard_count(), class, &op),
            Some(class) => {
                sh.cache.ends.remove(&class);
            }
            None => {}
        }
        sh.push_uncommitted(stamp, op);
    }

    /// Reserves a contiguous block of `n` commit-sequence stamps and
    /// returns its base. Must be called while holding the destination
    /// shard's lock: every stamp already in that shard is then strictly
    /// below the reserved base, so appends from the block preserve the
    /// shard's strictly-increasing stamp order.
    pub(crate) fn reserve_stamps(&self, n: u64) -> u64 {
        self.log.push_stamp.fetch_add(n, Ordering::Relaxed)
    }

    /// The `cmt` effect over a held view: flips every held entry of
    /// `local`'s pushed operations committed, appends `record` to the
    /// committed list — while still holding the commit's shard locks, so
    /// the global commit order agrees with the per-shard flip order
    /// (`committed` is last in the lock order) — and advances the held
    /// shards' caches. Returns the flipped ids in global stamp order, so
    /// the recorded `Commit` event's op order is identical at any shard
    /// count; on an untraced machine, which records no event, none.
    pub(crate) fn seal_commit(
        &self,
        view: &mut LogView<'_, S>,
        local: &[LocalEntry<S::Method, S::Ret>],
        record: CommittedTxn<S::Method, S::Ret>,
    ) -> Vec<OpId> {
        let flipped = view.commit_local(local, self.traced());
        unpoisoned(self.log.committed.lock()).push(record);
        let n = self.log.shards.len();
        for (_, sh) in &mut view.shards {
            sh.advance_cache(&*self.spec, n);
        }
        flipped
    }

    /// Committed transactions in global commit order.
    pub fn committed_txns(&self) -> Vec<CommittedTxn<S::Method, S::Ret>> {
        unpoisoned(self.log.committed.lock()).clone()
    }

    /// A snapshot of the whole shared log `G`, merged across shards in
    /// commit-stamp order — with one shard, exactly the historical log
    /// order.
    pub fn global_snapshot(&self) -> GlobalLog<S::Method, S::Ret> {
        let view = self.acquire_all();
        let entries = view.stamped().map(|(_, e)| e.clone()).collect();
        GlobalLog::from_entries(entries)
    }
}
