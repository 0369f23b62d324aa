//! The product API `ledger/` is built on, pinned where tier-1 compiles it.
//!
//! `ledger/` is a package outside the workspace, so `cargo build &&
//! cargo test` never compiles it: a change that drops a public item the
//! benchmark calls would pass tier-1 and break the benchmark. This file
//! names every item of `ledger/README.md` § "Product API the benchmark
//! depends on" with the signature the benchmark uses, so removing or
//! reshaping one fails to compile *here*. Keep the two lists in step.

use std::convert::Infallible;

use pushpull::core::audit::CriteriaAudit;
use pushpull::core::lang::Code;
use pushpull::core::log::GlobalLog;
use pushpull::core::machine::Machine;
use pushpull::core::op::{Op, OpId, ThreadId, TxnId};
use pushpull::core::serializability::{check_machine, SerializabilityReport};
use pushpull::core::spec::SeqSpec;
use pushpull::core::{commit_group, GroupOutcome, GroupStats, GroupTxnResult};
use pushpull::core::{MachineError, TxnHandle};
use pushpull::harness::{run, run_parallel, ParallelError, ParallelOutcome};
use pushpull::harness::{RoundRobin, RunOutcome, Scheduler};
use pushpull::server::{assign_sessions, ServerConfig, SessionId, SessionOutcome};
use pushpull::server::{SessionScript, TxnServer};
use pushpull::spec::kvmap::{KvMap, MapMethod, MapRet};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::tm::driver::{fold_machine_counters, ParallelSystem, SystemStats, Tick};
use pushpull::tm::driver::{TmSystem, Worker};
use pushpull::tm::util::pull_committed_lenient;
use pushpull::tm::{BoostingSystem, OptimisticSystem, ReadPolicy, Tl2System};

type Programs<M> = Vec<Vec<Code<M>>>;
type Handle = TxnHandle<KvMap>;
type Server = TxnServer<KvMap>;
type MapOp = Op<MapMethod, MapRet>;
type Log = GlobalLog<MapMethod, MapRet>;

/// `pushpull_core`, as `ladder.rs`, `measure.rs`, `tm.rs` and `kv.rs` use it.
fn core_items() {
    let _: fn(KvMap) -> Machine<KvMap> = Machine::new;
    let _: fn(&mut Machine<KvMap>, Vec<Code<MapMethod>>) -> ThreadId = Machine::add_thread;
    let _: fn(&mut Machine<KvMap>, usize) = Machine::set_log_shards;
    let _: fn(&mut Machine<KvMap>) -> &mut [Handle] = Machine::handles_mut;
    let _: fn(&Machine<KvMap>) -> Log = Machine::global;
    let _: fn(&Machine<KvMap>) -> &KvMap = Machine::spec;
    let _: fn(&Machine<KvMap>) -> CriteriaAudit = Machine::audit;
    let _: fn(&Machine<KvMap>) -> GroupStats = Machine::group_stats;
    let _: fn(&Machine<KvMap>) -> (u64, u64) = Machine::lock_stats;
    let _: fn(&Machine<KvMap>) -> SerializabilityReport = check_machine;
    let GroupStats {
        batches: _,
        batched_txns: _,
        ..
    } = GroupStats::default();
    let _: fn(&Log) -> Vec<MapOp> = GlobalLog::committed_ops;
    let _: fn(&KvMap, &[MapOp]) -> bool = KvMap::allowed;
    let _: fn(&KvMap, &MapMethod, &MapMethod) -> Option<bool> = KvMap::method_mover;

    let _: fn(&mut Handle, Code<MapMethod>) = Handle::enqueue;
    let _: fn(&mut Handle, &MapMethod) -> Result<OpId, MachineError> = Handle::app_method;
    let _: fn(&mut Handle) -> Result<TxnId, MachineError> = Handle::push_all_and_commit;
    let _: fn(&mut Handle) -> Result<TxnId, MachineError> = Handle::abort_and_retry;
    let _: fn(&Handle) -> Option<usize> = Handle::group_route;
    let _: fn(&mut [&mut Handle]) -> GroupOutcome = commit_group;
    let _: fn(&MachineError) -> bool = MachineError::is_criterion;
    let _: fn(MapMethod) -> Code<MapMethod> = Code::method;
    let _: fn(Vec<Code<MapMethod>>) -> Code<MapMethod> = Code::seq_all;

    let audit = CriteriaAudit::default();
    let _: u64 = audit.allowed_queries + audit.mover_queries + audit.violated.values().sum::<u64>();
    let _ = |o: GroupOutcome| -> Vec<(ThreadId, GroupTxnResult)> { o.results };
    // No wildcard arm: the benchmark's match names exactly these four.
    let _ = |r: GroupTxnResult| match r {
        GroupTxnResult::Committed(_) => 0,
        GroupTxnResult::Aborted { .. } => 1,
        GroupTxnResult::Wedged(_) => 2,
        GroupTxnResult::Ineligible => 3,
    };
}

/// `pushpull_tm` and `pushpull_harness`.
fn driver_items() {
    let _: fn(&Machine<KvMap>, &mut SystemStats) = fold_machine_counters;
    let _: fn(&mut Handle) -> Result<usize, MachineError> = pull_committed_lenient;
    // The fields `measure.rs` reads (five of them always zero since PR 15).
    let SystemStats {
        commits: _,
        aborts: _,
        blocked_ticks: _,
        lock_acquires: _,
        lock_contended: _,
        snap_reads: _,
        snap_retries: _,
        snap_fallbacks: _,
        arena_capacity: _,
        arena_reused: _,
        group_fallbacks: _,
        ..
    } = SystemStats::default();
    let _ = |t: Tick| matches!(t, Tick::Done | Tick::Blocked);

    let _: fn(KvMap, Programs<MapMethod>, ReadPolicy) -> OptimisticSystem<KvMap> =
        OptimisticSystem::new;
    let _ = ReadPolicy::Snapshot;
    let _: fn(KvMap, Programs<MapMethod>) -> BoostingSystem<KvMap> = BoostingSystem::new;
    let _: fn(Programs<MemMethod>) -> Tl2System = Tl2System::new;
    let _ = (MemMethod::Read(Loc(0)), RwMem::new());
    // `stats()` / `machine()` inherent on the drivers, not through `TmSystem`.
    let _: fn(&OptimisticSystem<KvMap>) -> SystemStats = OptimisticSystem::stats;
    let _: fn(&OptimisticSystem<KvMap>) -> &Machine<KvMap> = OptimisticSystem::machine;
    let _: fn(&BoostingSystem<KvMap>) -> SystemStats = BoostingSystem::stats;
    let _: fn(&BoostingSystem<KvMap>) -> &Machine<KvMap> = BoostingSystem::machine;
    let _: fn(&Tl2System) -> SystemStats = Tl2System::stats;
    let _: fn(&Tl2System) -> &Machine<RwMem> = Tl2System::machine;

    type Ran<T> = Result<(T, ParallelOutcome), ParallelError>;
    let _: fn(Tl2System, usize, Option<&Infallible>) -> Ran<Tl2System> = run_parallel;
    let _ = |o: ParallelOutcome| (o.completed, o.ticks);
    let _: fn(&mut Server, &mut RoundRobin, usize) -> Result<RunOutcome, MachineError> = run;
    let _ = |o: RunOutcome| o.ticks;
    let _: fn(&mut RoundRobin, usize, usize) -> ThreadId = RoundRobin::next;
}

/// `pushpull_server`.
fn server_items() {
    let _: fn(KvMap, Vec<SessionScript<MapMethod>>, ServerConfig) -> Server = TxnServer::new;
    let _: fn(&Server) -> &Machine<KvMap> = TxnServer::machine;
    let _: fn(&Server) -> &ServerConfig = TxnServer::config;
    let _: fn(&Server) -> Vec<(SessionId, &SessionOutcome)> = TxnServer::outcomes;
    let _: fn(&Server) -> SystemStats = TxnServer::stats;
    let _: fn(&mut Server, ThreadId) -> Result<Tick, MachineError> = <Server as TmSystem>::tick;
    let _: fn(&Server) -> bool = <Server as TmSystem>::is_done;
    let _: fn(&Server) -> usize = <Server as TmSystem>::thread_count;
    let _: fn(&mut Server, usize) = <Server as TmSystem>::set_log_shards;
    let _: fn(&mut Server) -> Vec<Worker<'_>> = <Server as ParallelSystem>::workers;
    let _: fn(Vec<MapMethod>) -> SessionScript<MapMethod> = SessionScript::commit;
    let _: fn(usize, usize, u64) -> Vec<Vec<usize>> = assign_sessions;
    // Every field: the benchmark builds one with `..default()` and reads
    // `seed` / `arrival_period` back; a new field is an option it never set.
    let ServerConfig {
        workers: _,
        slots_per_worker: _,
        max_retries: _,
        arrival_period: _,
        seed: _,
    } = ServerConfig::default();
    let _ = |o: &SessionOutcome| match o {
        SessionOutcome::Committed {
            latency, retries, ..
        } => latency + retries,
        _ => 0,
    };
    let _: u64 = SessionId(0).0;
}

#[test]
fn every_item_the_benchmark_depends_on_still_has_its_shape() {
    core_items();
    driver_items();
    server_items();
}
