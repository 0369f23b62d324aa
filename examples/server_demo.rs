//! The service front-end end to end: a bank-transfer session mix
//! through [`TxnServer`] — funding sessions, transfer sessions, balance
//! audits that deliberately abort — each commit-ready transaction
//! committing as one held section (its PUSHes and its CMT under one
//! acquisition of its shards' locks and one contiguous stamp range).
//!
//! Prints each session's outcome and the server statistics, and verifies
//! the commit count, conservation of money and the serializability
//! oracle.
//!
//! Run with: `cargo run --example server_demo`

use pushpull::core::serializability::check_machine;
use pushpull::core::spec::SeqSpec;
use pushpull::harness::{run, RoundRobin};
use pushpull::server::{ServerConfig, SessionScript, TxnServer};
use pushpull::spec::bank::{Bank, BankMethod, BankRet};

const ACCOUNTS: u32 = 8;
const SEED_MONEY: i64 = 100;
const TRANSFERS: u32 = 24;

fn main() {
    // The session mix a small payments service would see: one funding
    // session per account, a wave of transfer sessions, and a few
    // read-only audit sessions that close with Abort (a client checking
    // balances without committing anything).
    let mut scripts: Vec<SessionScript<BankMethod>> = Vec::new();
    for a in 0..ACCOUNTS {
        scripts.push(SessionScript::commit(vec![BankMethod::Deposit(
            a, SEED_MONEY,
        )]));
    }
    for t in 0..TRANSFERS {
        let from = t % ACCOUNTS;
        let to = (t + 3) % ACCOUNTS;
        scripts.push(SessionScript::commit(vec![
            BankMethod::Withdraw(from, 10),
            BankMethod::Deposit(to, 10),
        ]));
    }
    for a in 0..4 {
        scripts.push(SessionScript::abort(vec![
            BankMethod::Balance(a),
            BankMethod::Balance(a + 4),
        ]));
    }
    let total_sessions = scripts.len();

    let mut server = TxnServer::new(
        Bank::new(),
        scripts,
        ServerConfig {
            workers: 4,
            slots_per_worker: 4,
            ..ServerConfig::default()
        },
    );
    run(&mut server, &mut RoundRobin, 1_000_000).expect("run");

    println!("=== session outcomes ===");
    for (id, outcome) in server.outcomes() {
        println!("  {id}: {outcome:?}");
    }

    let stats = server.stats();
    println!("\n=== server statistics ===");
    println!("sessions        {}", stats.sessions);
    println!("commits         {}", stats.commits);
    println!("aborts          {}", stats.aborts);
    println!("lock acquires   {}", stats.lock_acquires);
    println!(
        "locks/commit    {:.3}",
        stats.lock_acquires as f64 / stats.commits.max(1) as f64
    );

    assert_eq!(stats.sessions as usize, total_sessions);
    assert_eq!(stats.commits, u64::from(ACCOUNTS + TRANSFERS));

    let report = check_machine(server.machine());
    println!("\nserializability oracle: {report}");
    assert!(report.is_serializable());

    // Conservation: fold the committed log through the denotational
    // semantics. A failed withdraw (insufficient funds at serialization
    // time) skips nothing on the deposit side of its transfer, so it
    // mints 10 — count those explicitly, as bank_transfer.rs does.
    let committed = server.machine().global().committed_ops();
    let states = Bank::new().denote(&committed);
    assert_eq!(states.len(), 1, "bank is deterministic");
    let state = states.into_iter().next().unwrap();
    let total: i64 = state.values().sum();
    let failed_withdraws = committed
        .iter()
        .filter(|o| {
            matches!(
                (o.method, o.ret),
                (BankMethod::Withdraw(_, _), BankRet::Ok(false))
            )
        })
        .count() as i64;
    println!("\nfinal total = {total} ({failed_withdraws} failed withdraws)");
    assert_eq!(
        total,
        i64::from(ACCOUNTS) * SEED_MONEY + failed_withdraws * 10,
        "money must be conserved modulo failed-withdraw deposits"
    );
    println!("conservation verified");
}
