//! `pushpull-lint`: run the spec certifier over the shipped
//! specification suite, printing rustc-style reports.
//!
//! The certifier re-derives each bounded spec's mover matrix and minimal
//! footprint cover from its denotational semantics and cross-checks
//! every hand-written declaration. Any error-severity finding on a
//! shipped spec makes the process exit nonzero, so this example doubles
//! as the CI certification gate. A last section certifies a spec in the
//! context of a workload (`certify_in`), which anchors each finding at
//! the first call of its method in the workload's programs.
//!
//! Run with: `cargo run --example pushpull_lint`

use pushpull::analysis::{certify, certify_in, render_report, Severity};
use pushpull::core::lang::Code;
use pushpull::spec::bank::Bank;
use pushpull::spec::composite::Product;
use pushpull::spec::counter::Counter;
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::queue::QueueSpec;
use pushpull::spec::register::CasRegister;
use pushpull::spec::rwmem::{Loc, RwMem};
use pushpull::spec::set::SetSpec;

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

    // ── A spec certified over a workload ─────────────────────────────
    // Four threads, each writing its own key: findings point at the
    // first call of their method in these programs.
    let disjoint: Vec<_> = (0..4u64)
        .map(|t| vec![Code::method(MapMethod::Put(t, t as i64))])
        .collect();
    let bounded = KvMap::bounded(vec![0, 1, 2, 3], vec![1]);
    println!("=== certified workload: disjoint-keys (kvmap) ===");
    match certify_in(&bounded, "kvmap", &disjoint) {
        Ok(cert) => {
            print!("{}", render_report(&cert.diagnostics));
            println!("{}\n", cert.certificate);
        }
        Err(d) => println!("{d}"),
    }

    if errors > 0 {
        eprintln!("pushpull-lint: {errors} error-severity certifier finding(s)");
        std::process::exit(1);
    }
    println!("pushpull-lint: spec suite certified clean");
}
