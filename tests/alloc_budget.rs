//! What a conflict-free transaction allocates, as a count.
//!
//! The paper's APP → PUSH → CMT sequence for a transaction nobody
//! conflicts with is "`(m, c′) ∈ step(c)`, `L allows op`, append" three
//! times over; what it costs here is pinned as a number of allocations —
//! a count repeats exactly, a timing does not. Two statements:
//!
//! * a **budget**: `enqueue` → `app_method` × 3 → `push_all_and_commit` on
//!   session-private keys of a 16-shard `KvMap` machine stays within a
//!   stated number of allocations per transaction and per APP;
//! * **flatness**: what one APP allocates — count and bytes — does not
//!   grow with how long the transaction is, and neither does what its
//!   commit allocates per operation. (Before APP shared its code and cut
//!   its stack by length it copied both into every entry; before PUSH
//!   (iii) started from its class's end-of-log set it replayed the
//!   transaction's earlier pushes: per operation, both grew linearly with
//!   the program.) Nor does what an APP and its PUSH allocate depend on
//!   how many bindings the state they step holds: the spec steps its sets
//!   in place, where it once copied the state at every step;
//! * **the trace's share**: on a machine that records no trace (as
//!   `TxnServer`'s), the same transaction allocates less — not the
//!   `Commit` event's id list — and a refresh allocates no PULL event's
//!   list of reachable methods.
//!
//! This file is its own test binary so that the counting
//! `#[global_allocator]` is private to it. The counters are per thread and
//! every test drives its machine on its own thread, so the tests do not
//! see each other. Counts are taken after a warm-up pass: append-only
//! buffers (a handle's trace events, its spilled local log, the shard
//! logs) have grown by then, so what is left is what every transaction
//! pays.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::spec::kvmap::{KvMap, MapMethod};

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls and requested bytes per thread.
struct Counting;

fn note(bytes: usize) {
    // `try_with`: an allocation during thread teardown is served, not counted.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// `const`-initialised thread-locals without destructors, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread has requested so far.
fn counted() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}

/// `(allocations, bytes)` requested by this thread while `body` ran.
fn counting<T>(body: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (c0, b0) = counted();
    let out = body();
    let (c1, b1) = counted();
    (out, (c1 - c0, b1 - b0))
}

const SHARDS: usize = 16;
const HANDLES: usize = 16;

fn machine() -> Machine<KvMap> {
    traced_machine(true)
}

fn traced_machine(traced: bool) -> Machine<KvMap> {
    let mut m = Machine::new(KvMap::new());
    m.set_trace(traced);
    for _ in 0..HANDLES {
        m.add_thread(Vec::new());
    }
    m.set_log_shards(SHARDS);
    m
}

/// One transaction on handle `t`: `enqueue` the straight-line program of
/// `ops`, `app_method` each, `push_all_and_commit`. Returns the
/// `(allocations, bytes)` of the whole transaction, of its APPs alone and
/// of its `push_all_and_commit` alone.
fn transaction(m: &mut Machine<KvMap>, t: ThreadId, ops: &[MapMethod]) -> [(u64, u64); 3] {
    let h = m.handle_mut(t).expect("handle exists");
    let (mut apps, mut commit) = ((0, 0), (0, 0));
    let ((), whole) = counting(|| {
        h.enqueue(Code::seq_all(ops.iter().copied().map(Code::method)));
        ((), apps) = counting(|| {
            for op in ops {
                h.app_method(op).expect("conflict-free APP");
            }
        });
        (_, commit) = counting(|| h.push_all_and_commit().expect("conflict-free commit"));
    });
    [whole, apps, commit]
}

/// The ledger's fresh traffic: 64 sessions of `Put(k); Get(k); Put(k)` on a
/// key of their own, dealt over the handles.
fn fresh_epoch(m: &mut Machine<KvMap>, epoch: u64) -> [(u64, u64); 3] {
    let mut total = [(0, 0); 3];
    for s in 0..64u64 {
        let k = epoch * 64 + s;
        let ops = [
            MapMethod::Put(k, 1),
            MapMethod::Get(k),
            MapMethod::Put(k, 2),
        ];
        let t = ThreadId(s as usize % HANDLES);
        for (sum, part) in total.iter_mut().zip(transaction(m, t, &ops)) {
            sum.0 += part.0;
            sum.1 += part.1;
        }
    }
    total
}

/// Ceilings on allocations per conflict-free 3-operation transaction and
/// per APP, `(release, debug)`. Release is the statement (132 and 26.7
/// before APP stepped its code once, asked `allowed` once, kept `⟦L⟧`
/// inline and shared its code; 47.8 and 5.0 while each PUSH (iii) still
/// replayed the class's uncommitted suffix and CMT folded it again; 34.8
/// and 5.0 while every spec step copied the state it stepped; 21.8 and
/// 2.3 while each attempt's first replay asked the spec for `⟦ε⟧` as a
/// fresh `Vec`; 20.8 and 2.0 now), with headroom for a shard log or an event buffer doubling
/// inside the counted epoch. A debug build also runs the cross-checks that
/// make the short cuts safe to take — `carry` replays `L`, APP re-derives
/// `step(c)`, PUSH re-checks its end-of-log set against that replay — and
/// they allocate (42.8 and 8.7). Lower a ceiling when the count falls;
/// never raise one without saying where the allocations went.
const PER_TXN_BUDGET: (f64, f64) = (30.0, 55.0);
const PER_APP_BUDGET: (f64, f64) = (4.0, 12.0);

#[test]
fn a_conflict_free_transaction_stays_within_its_allocation_budget() {
    let mut m = machine();
    fresh_epoch(&mut m, 0);
    let [(whole, _), (apps, _), _] = fresh_epoch(&mut m, 1);
    let per_txn = whole as f64 / 64.0;
    let per_app = apps as f64 / (64.0 * 3.0);
    println!("allocations: {per_txn:.2} per transaction, {per_app:.2} per APP");
    let pick = |(release, debug): (f64, f64)| {
        if cfg!(debug_assertions) {
            debug
        } else {
            release
        }
    };
    assert!(
        per_txn <= pick(PER_TXN_BUDGET),
        "{per_txn} allocations per transaction"
    );
    assert!(
        per_app <= pick(PER_APP_BUDGET),
        "{per_app} allocations per APP"
    );
    // Not by asking less: 3 APP (ii) + 3 PUSH (iii) audited `allowed`
    // queries per transaction, as ever, and nothing denied.
    let audit = m.audit();
    assert_eq!(audit.allowed_queries, 2 * 64 * 6);
    assert!(audit.violated.is_empty(), "{audit:?}");
}

/// The transaction lengths the flatness rows compare.
#[cfg(not(debug_assertions))]
const LENGTHS: [usize; 3] = [3, 48, 192];

/// `(allocations, bytes)` per operation of the APP phase (`[0]`) and of
/// `push_all_and_commit` (`[1]`) in straight-line transactions of `len`
/// `Put`s, all on one key of the transaction's own (so every step is of a
/// one-key state, whatever the length): for each, the cheapest of eight
/// transactions after two of warm-up — the one in which no append-only
/// buffer happened to double.
#[cfg(not(debug_assertions))]
fn cost_per_op(len: usize) -> [(f64, f64); 2] {
    let mut m = machine();
    let mut run = |txn: u64| {
        let ops: Vec<MapMethod> = (0..len as u64)
            .map(|i| MapMethod::Put(txn, i as i64))
            .collect();
        let [_, apps, commit] = transaction(&mut m, ThreadId(0), &ops);
        [apps, commit]
    };
    run(0);
    run(1);
    let runs: Vec<[(u64, u64); 2]> = (2..10).map(run).collect();
    [0, 1].map(|phase| {
        let fewest = runs.iter().map(|r| r[phase].0).min().expect("eight runs");
        let smallest = runs.iter().map(|r| r[phase].1).min().expect("eight runs");
        (fewest as f64 / len as f64, smallest as f64 / len as f64)
    })
}

/// The ratio of the largest to the smallest of `values`.
#[cfg(not(debug_assertions))]
fn spread(values: impl Iterator<Item = f64>) -> f64 {
    let (lo, hi) = values.fold((f64::MAX, 0.0f64), |(lo, hi), v| (lo.min(v), hi.max(v)));
    hi / lo
}

/// What an APP costs per operation does not grow with the transaction:
/// at no length above 3 is it dearer, in allocations or bytes, than at 3.
/// Its allocations are flat (2.00 at 3 / 48 / 192; 2.33 / 2.02 / 2.01
/// while each transaction's first replay collected `⟦ε⟧` into a fresh
/// `Vec`) and its bytes fall (138.7 / 91.2 / 88.8), because the first
/// `Put` on the transaction's empty map allocates the map's node once per
/// transaction, and the later ones step it in place.
/// Release builds only: a debug build's `carry` cross-check replays `L`
/// on every APP, which is linear in the transaction by design.
#[cfg(not(debug_assertions))]
#[test]
fn app_cost_per_operation_does_not_grow_with_transaction_length() {
    let costs = LENGTHS.map(|len| cost_per_op(len)[0]);
    for (len, (allocs, bytes)) in LENGTHS.iter().zip(costs) {
        println!("{len:>4} puts: {allocs:.2} allocations, {bytes:.1} bytes per APP");
    }
    let (short_allocs, short_bytes) = costs[0];
    for (len, (allocs, bytes)) in LENGTHS.iter().zip(costs).skip(1) {
        assert!(
            allocs <= short_allocs,
            "{allocs:.2} allocations per APP at {len} puts, {short_allocs:.2} at 3"
        );
        assert!(
            bytes <= short_bytes,
            "{bytes:.1} bytes per APP at {len} puts, {short_bytes:.1} at 3"
        );
    }
}

/// What the commit — every PUSH, then the CMT — costs per operation does
/// not grow with the transaction either. Each PUSH (iii) steps only its own
/// operation from its class's end-of-log set, and the CMT moves that set
/// into the committed-prefix cache instead of folding the operations a
/// second time; before, each PUSH replayed the transaction's pushes so far
/// (9.3 / 52.5 / 196 allocations and 1.0 / 6.0 / 21.6 kB per operation at
/// 3 / 48 / 192). Release builds only: a debug build re-checks every
/// end-of-log set against that replay.
#[cfg(not(debug_assertions))]
#[test]
fn commit_cost_per_operation_is_flat_in_transaction_length() {
    let costs = LENGTHS.map(|len| cost_per_op(len)[1]);
    for (len, (allocs, bytes)) in LENGTHS.iter().zip(costs) {
        println!(
            "{len:>4} puts: {allocs:.2} allocations, {bytes:.1} bytes per operation committed"
        );
    }
    let (short, _) = costs[0];
    for (len, (allocs, _)) in LENGTHS.iter().zip(costs).skip(1) {
        assert!(
            allocs <= short,
            "{allocs:.2} allocations per operation at {len} puts, {short:.2} at 3"
        );
    }
    let bytes = spread(costs.iter().map(|c| c.1));
    assert!(
        bytes <= 1.25,
        "bytes per committed operation vary {bytes:.2}x with length"
    );
}

/// `(allocations, bytes)` of one APP of `Get(probe)` and its PUSH, in a
/// one-shard machine whose one transaction has already applied and pushed
/// `Put`s binding `bindings` keys — so the carried `⟦L⟧` and the class's
/// end-of-log set both hold that many bindings — and one warm-up `Get` of
/// the probe key, so no append-only buffer sits at a doubling boundary.
#[cfg(not(debug_assertions))]
fn get_and_push_cost(bindings: u64) -> (u64, u64) {
    let mut m = Machine::new(KvMap::new());
    let t = m.add_thread(Vec::new());
    let probe = bindings;
    let puts = (0..bindings).map(|k| MapMethod::Put(k, 1));
    let program = puts.chain([MapMethod::Get(probe); 2]).map(Code::method);
    let h = m.handle_mut(t).expect("handle exists");
    h.enqueue(Code::seq_all(program));
    let mut app_and_push = |method: &MapMethod| {
        let id = h.app_method(method).expect("conflict-free APP");
        h.push(id).expect("conflict-free PUSH");
    };
    for k in 0..bindings {
        app_and_push(&MapMethod::Put(k, 1));
    }
    app_and_push(&MapMethod::Get(probe));
    counting(|| app_and_push(&MapMethod::Get(probe))).1
}

/// An APP and its PUSH step `⟦L⟧` and the class's end-of-log set in
/// place: what they allocate, count and bytes, is the same whether the
/// state holds 1, 64 or 1 024 bindings. (While every spec step copied the
/// state it stepped, both copied the whole map.) Release builds only: a
/// debug build's cross-checks replay `L` and the class's suffix.
#[cfg(not(debug_assertions))]
#[test]
fn an_app_and_its_push_cost_the_same_over_any_number_of_bindings() {
    let costs = [1, 64, 1024].map(|n| (n, get_and_push_cost(n)));
    for (n, (allocs, bytes)) in costs {
        println!("{n:>5} bindings: {allocs} allocations, {bytes} bytes per APP and PUSH");
    }
    let (_, small) = costs[0];
    for (n, cost) in costs {
        assert_eq!(cost, small, "an APP and its PUSH over {n} bindings");
    }
}

/// Untraced, a conflict-free transaction allocates at least one fewer
/// time than traced — the `Commit` event's list of flipped ids, besides
/// the events themselves — and the same `allowed` queries are asked.
#[test]
fn an_untraced_transaction_allocates_less() {
    let per_txn = |traced: bool| {
        let mut m = traced_machine(traced);
        fresh_epoch(&mut m, 0);
        let [(count, bytes), ..] = fresh_epoch(&mut m, 1);
        assert_eq!(m.audit().allowed_queries, 2 * 64 * 6);
        (count as f64 / 64.0, bytes as f64 / 64.0)
    };
    let (traced, untraced) = (per_txn(true), per_txn(false));
    println!(
        "per transaction: traced {:.2} allocations, {:.0} bytes; untraced {:.2}, {:.0}",
        traced.0, traced.1, untraced.0, untraced.1
    );
    assert!(
        untraced.0 + 1.0 <= traced.0,
        "untraced {untraced:?} against traced {traced:?}"
    );
}

/// `(allocations, bytes)` of one lenient refresh that pulls `n` committed
/// `Put`s into a transaction about to overwrite their keys.
fn refresh_cost(traced: bool, n: u64) -> (usize, (u64, u64)) {
    let mut m = Machine::new(KvMap::new());
    m.set_trace(traced);
    let writer = m.add_thread(Vec::new());
    let reader = m.add_thread(Vec::new());
    let puts = |v: i64| Code::seq_all((0..n).map(|k| Code::method(MapMethod::Put(k, v))));
    m.enqueue_txn(writer, puts(1)).expect("writer exists");
    for k in 0..n {
        m.app_method(writer, &MapMethod::Put(k, 1))
            .expect("conflict-free APP");
    }
    m.push_all_and_commit(writer).expect("conflict-free commit");
    m.enqueue_txn(reader, puts(2)).expect("reader exists");
    let h = m.handle_mut(reader).expect("reader exists");
    counting(|| h.pull_committed_lenient().expect("refresh"))
}

/// Untraced, a refresh's PULLs build no event: each of them allocates no
/// copy of the methods the transaction can still reach.
#[test]
fn an_untraced_refresh_allocates_no_reachable_methods() {
    const N: u64 = 8;
    let ((pulled, traced), (untraced_pulled, untraced)) =
        (refresh_cost(true, N), refresh_cost(false, N));
    let every = N as usize;
    assert_eq!(
        (pulled, untraced_pulled),
        (every, every),
        "a refresh pulls every committed put"
    );
    println!("refresh of {N}: traced {traced:?}, untraced {untraced:?} (allocations, bytes)");
    assert!(
        untraced.0 + N <= traced.0,
        "untraced {untraced:?} against traced {traced:?}"
    );
}
