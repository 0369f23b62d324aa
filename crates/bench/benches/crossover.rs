//! B2: the abort-rate crossover as the read ratio sweeps from write-heavy
//! to read-only — the series behind the classic "optimism wins when
//! conflicts are rare" claim. Printed as a table; two endpoints are also
//! wall-clock benchmarked.

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{criterion_group, criterion_main};

use pushpull_bench::{assert_serializable, drive};
use pushpull_harness::workload::WorkloadSpec;
use pushpull_spec::rwmem::RwMem;
use pushpull_tm::htm::HtmSystem;
use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull_tm::pessimistic::MatveevShavitSystem;

fn workload(read_ratio: f64) -> WorkloadSpec {
    WorkloadSpec {
        threads: 4,
        txns_per_thread: 8,
        ops_per_txn: 3,
        key_range: 6,
        read_ratio,
        seed: 77,
    }
}

fn bench_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("B2-crossover");
    group.sample_size(10);
    for pct in [0u32, 100] {
        let w = workload(pct as f64 / 100.0);
        group.bench_function(BenchmarkId::new("optimistic", pct), |b| {
            b.iter(|| {
                let mut sys =
                    OptimisticSystem::new(RwMem::new(), w.rwmem_programs(), ReadPolicy::Snapshot);
                drive(&mut sys, 3)
            })
        });
        group.bench_function(BenchmarkId::new("htm", pct), |b| {
            b.iter(|| {
                let mut sys = HtmSystem::new(w.rwmem_programs());
                drive(&mut sys, 3)
            })
        });
    }
    group.finish();

    eprintln!("\n=== B2 crossover series (abort-rate % by read ratio) ===");
    eprintln!(
        "{:<12} {:>12} {:>12} {:>12}",
        "read-ratio", "optimistic", "pess-ms", "htm-sim"
    );
    for pct in [0u32, 25, 50, 75, 90, 100] {
        let w = workload(pct as f64 / 100.0);

        let mut opt = OptimisticSystem::new(RwMem::new(), w.rwmem_programs(), ReadPolicy::Snapshot);
        let (so, _) = drive(&mut opt, 3);
        assert_serializable(opt.machine());

        let mut ms = MatveevShavitSystem::new(RwMem::new(), w.rwmem_programs());
        let (sm, _) = drive(&mut ms, 3);
        assert_serializable(ms.machine());

        let mut htm = HtmSystem::new(w.rwmem_programs());
        let (sh, _) = drive(&mut htm, 3);
        assert_serializable(htm.machine());

        eprintln!(
            "{:<12} {:>11.1}% {:>11.1}% {:>11.1}%",
            format!("{pct}%"),
            so.abort_rate() * 100.0,
            sm.abort_rate() * 100.0,
            sh.abort_rate() * 100.0,
        );
    }
}

criterion_group!(benches, bench_crossover);
criterion_main!(benches);
