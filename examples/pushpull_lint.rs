//! `pushpull-lint`: run the program linter and the spec certifier over the
//! structured workload corpus (`harness::patterns`) and the shipped
//! specification suite, printing rustc-style reports.
//!
//! For each workload family the analyzer reports the mover matrix over
//! the union method footprint, the declared key classes, and any
//! program-level findings (never-commits, unreachable methods, potential
//! PULL cycles).
//!
//! The certifier section re-derives each bounded spec's mover matrix and
//! minimal footprint cover from its denotational semantics and
//! cross-checks every hand-written declaration. Any error-severity
//! finding on a shipped spec makes the process exit nonzero, so this
//! example doubles as the CI certification gate.
//!
//! Run with: `cargo run --example pushpull_lint`

use pushpull::analysis::{
    analyze, analyze_certified, certify, render_report, AnalysisPlan, Severity,
};
use pushpull::harness::patterns;
use pushpull::spec::bank::Bank;
use pushpull::spec::composite::Product;
use pushpull::spec::counter::Counter;
use pushpull::spec::kvmap::KvMap;
use pushpull::spec::queue::QueueSpec;
use pushpull::spec::register::CasRegister;
use pushpull::spec::rwmem::{Loc, RwMem};
use pushpull::spec::set::SetSpec;

fn banner(title: &str, plan: &AnalysisPlan) {
    println!("=== {title} ===");
    println!("{plan}");
}

/// Certify one bounded spec, print its report, and return its
/// error-severity finding count.
fn certify_spec<S>(name: &str, spec: &S) -> usize
where
    S: pushpull::core::spec::SeqSpec,
    S::Method: std::fmt::Display,
{
    println!("=== certify: {name} ===");
    match certify(spec, name) {
        Ok(cert) => {
            print!("{}", render_report(&cert.diagnostics));
            let c = &cert.certificate;
            println!(
                "→ {} method(s), {} footprint class(es), valid={}\n",
                c.methods.len(),
                c.components.iter().copied().max().map_or(0, |m| m + 1),
                cert.is_valid()
            );
            cert.errors()
        }
        Err(d) => {
            print!("{d}");
            println!("→ spec is not finitely certifiable\n");
            // Uncertifiable is a note, not an error: no finite universes.
            usize::from(d.severity == Severity::Error)
        }
    }
}

fn main() {
    // Bank transfers: disjoint-account deposits commute, shared-account
    // withdraws do not.
    let transfers = patterns::transfers(4, 2, 5, 100);
    banner("transfers (bank)", &analyze(&Bank::new(), &transfers));

    // Producer/consumer over a FIFO queue: the fully non-commutative
    // regime, plus a genuine cross-thread conflict cycle.
    let pc = patterns::producer_consumer(2, 2, 3);
    banner(
        "producer-consumer (queue)",
        &analyze(&QueueSpec::new(), &pc),
    );

    // Read-modify-write chains: same-location read/write pairs block
    // every clause once threads share locations.
    let rmw = patterns::rmw_chains(4, 2, 2);
    banner("rmw-chains (memory)", &analyze(&RwMem::new(), &rmw));

    // Scanners vs updaters: reads all commute; the updaters' writes
    // conflict with the scans on shared keys.
    let scans = patterns::scans_and_updates(4, 2, 3);
    banner("scans-and-updates (kvmap)", &analyze(&KvMap::new(), &scans));

    // Disjoint-key workload: every method pair a proven mover.
    let disjoint: Vec<_> = (0..4u64)
        .map(|t| {
            vec![pushpull::core::lang::Code::method(
                pushpull::spec::kvmap::MapMethod::Put(t, t as i64),
            )]
        })
        .collect();
    banner("disjoint-keys (kvmap)", &analyze(&KvMap::new(), &disjoint));

    // ── Spec certifier over the whole shipped suite ──────────────────
    // Every spec is certified against its own denotational semantics;
    // error-severity findings gate the exit status (and hence CI).
    let mut errors = 0;
    errors += certify_spec("counter", &Counter::with_universe(2));
    errors += certify_spec("register", &CasRegister::with_universe(2));
    errors += certify_spec("queue", &QueueSpec::bounded(vec![1, 2], 2));
    errors += certify_spec("bank", &Bank::bounded(vec![1, 2], 2));
    errors += certify_spec("kvmap", &KvMap::bounded(vec![0, 1], vec![1]));
    errors += certify_spec(
        "rwmem",
        &RwMem::bounded(vec![Loc(0), Loc(1)], vec![0, 1, 2]),
    );
    errors += certify_spec("set", &SetSpec::bounded(vec![1, 2]));
    errors += certify_spec(
        "product(set,counter)",
        &Product::new(SetSpec::bounded(vec![1]), Counter::with_universe(2)),
    );
    // An unbounded spec is honestly uncertifiable (a note, not an error).
    errors += certify_spec("counter (unbounded)", &Counter::new());

    // ── Certificate-carrying plan ────────────────────────────────────
    // `analyze_certified` folds the certifier into the workload plan;
    // the workload's declared key classes yield the recommended shard
    // count.
    let bounded = KvMap::bounded(vec![0, 1, 2, 3], vec![1]);
    let cplan = analyze_certified(&bounded, &disjoint, "kvmap");
    println!("=== certified plan: disjoint-keys (kvmap) ===");
    print!("{cplan}");
    println!(
        "→ certificate attached: {}; recommended shard count: {}\n",
        cplan.certificate.is_some(),
        cplan.recommended_shards()
    );

    if errors > 0 {
        eprintln!("pushpull-lint: {errors} error-severity certifier finding(s)");
        std::process::exit(1);
    }
    println!("pushpull-lint: spec suite certified clean");
}
