//! B10: the cost of one operation on the locked shard path.
//!
//! B9 measures throughput under OS-thread contention; this target
//! isolates the *single-op* costs:
//!
//! * **app-push-unpush-unapp** — one full forward/backward cycle of a
//!   declared-footprint write: PUSH and UNPUSH each take their routed
//!   shard's lock once, evaluate the criteria kernel and apply the
//!   effect. The per-op allocation counts (from a counting global
//!   allocator) show what the cycle costs in heap traffic.
//! * **can-push-readonly** — the pure criteria check on a disjoint
//!   footprint: one lock (its routed shard), no log mutation, no audit
//!   movement. The bench-smoke assertion pins both before timing
//!   anything.
//!
//! The shape table prints per-op allocation counts and the machine's
//! lock counter; EXPERIMENTS.md §B10 keeps the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{criterion_group, criterion_main};

use pushpull_core::lang::Code;
use pushpull_core::machine::Machine;
use pushpull_core::op::{OpId, ThreadId};
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

/// Counts allocation events (not bytes freed) so the table can report
/// allocations **per operation** at steady state.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events per call of `f`, averaged over `n` calls.
fn allocs_per(n: u64, mut f: impl FnMut()) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..n {
        f();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / n as f64
}

/// A machine whose thread 0 can run the app→push→unpush→unapp cycle
/// forever: UNAPP restores the saved code, so the single-write program
/// never exhausts. A committed write from a second thread on another
/// shard makes the criteria non-vacuous.
fn cycle_machine(shards: usize) -> (Machine<RwMem>, ThreadId) {
    let mut m = Machine::new(RwMem::new());
    let t = m.add_thread(vec![Code::method(MemMethod::Write(Loc(1), 5))]);
    let other = m.add_thread(vec![Code::method(MemMethod::Write(Loc(0), 7))]);
    m.set_log_shards(shards);
    let w = m.app_auto(other).expect("app other");
    m.push(other, w).expect("push other");
    m.commit(other).expect("commit other");
    (m, t)
}

/// One forward/backward cycle of thread `t`'s write.
fn cycle(m: &mut Machine<RwMem>, t: ThreadId) {
    let op = m.app_auto(t).expect("app");
    m.push(t, op).expect("push");
    m.unpush(t, op).expect("unpush");
    m.unapp(t).expect("unapp");
}

/// A machine holding an un-pushed disjoint read for `can_push` checks.
fn readonly_machine(shards: usize) -> (Machine<RwMem>, ThreadId, OpId) {
    let mut m = Machine::new(RwMem::new());
    let writer = m.add_thread(vec![Code::method(MemMethod::Write(Loc(0), 7))]);
    let reader = m.add_thread(vec![Code::method(MemMethod::Read(Loc(1)))]);
    m.set_log_shards(shards);
    let w = m.app_auto(writer).expect("app writer");
    m.push(writer, w).expect("push writer");
    m.commit(writer).expect("commit writer");
    let op = m.app_auto(reader).expect("app reader");
    (m, reader, op)
}

fn bench_single_op(c: &mut Criterion) {
    // Bench-smoke assertion before timing: the read-only disjoint
    // criteria check acquires exactly one lock — its routed shard,
    // `Loc(1)` → shard 1 — and moves no audit counter.
    let (m, reader, op) = readonly_machine(16);
    let locks_before = m.lock_stats_per_shard();
    let audit_before = m.audit();
    for _ in 0..1_000 {
        assert!(m.can_push(reader, op).expect("well-formed"));
    }
    let mut expected = locks_before;
    expected[1].0 += 1_000;
    assert_eq!(
        m.lock_stats_per_shard(),
        expected,
        "B10 regression: a read-only check locks its routed shard once, nothing else"
    );
    assert_eq!(m.audit(), audit_before, "B10 regression: can_push audited");

    let mut group = c.benchmark_group("B10-single-op");
    group.sample_size(20);
    for shards in [1usize, 16] {
        group.bench_function(BenchmarkId::new("app-push-unpush-unapp", shards), |b| {
            let (mut m, t) = cycle_machine(shards);
            b.iter(|| cycle(&mut m, t));
        });
        group.bench_function(BenchmarkId::new("can-push-readonly", shards), |b| {
            let (m, reader, op) = readonly_machine(shards);
            b.iter(|| m.can_push(reader, op).expect("well-formed"));
        });
    }
    group.finish();

    eprintln!("\n=== B10 shape table (per-op allocation counts, steady state) ===");
    for shards in [1usize, 16] {
        let (mut m, t) = cycle_machine(shards);
        for _ in 0..1_000 {
            cycle(&mut m, t); // warm up: log and footprint storage
        }
        let cyc = allocs_per(10_000, || cycle(&mut m, t));
        let (acq, _) = m.lock_stats();

        let (rm, reader, op) = readonly_machine(shards);
        let chk = allocs_per(10_000, || {
            rm.can_push(reader, op).expect("well-formed");
        });
        eprintln!(
            "{shards:>2} shards  allocs/cycle={cyc:<6.2} allocs/check={chk:<6.2} locks={acq}"
        );
    }
}

criterion_group!(benches, bench_single_op);
criterion_main!(benches);
