//! `tm_rw`: the paper's §6 drivers, end to end. One epoch builds an
//! optimistic, a boosting and a TL2 system over the same generated
//! read/write pattern and hands each to `harness::run_parallel`, which
//! runs one OS thread per model thread.

use std::time::Instant;

use pushpull_core::lang::Code;
use pushpull_core::machine::Machine;
use pushpull_core::serializability::check_machine;
use pushpull_core::spec::SeqSpec;
use pushpull_harness::run_parallel;
use pushpull_spec::kvmap::KvMap;
use pushpull_tm::driver::{ParallelSystem, SystemStats};
use pushpull_tm::{BoostingSystem, OptimisticSystem, ReadPolicy, Tl2System};

use crate::alloc::AllocCounts;
use crate::gen::{self, TmEpoch};
use crate::measure::Counters;
use crate::probe::{probe_on, to_nominal};
use crate::stats::median;

/// Model threads per system, one OS thread each.
pub const THREADS: usize = 2;
/// Transactions per thread.
pub const TXNS: usize = 16;
/// Keys (or memory words) the operations draw from.
pub const KEYS: u64 = 64;
/// Untimed epochs run before the first timed one.
pub const WARMUP_EPOCHS: u64 = 4;
/// Ticks per thread before `run_parallel`'s watchdog trips.
pub const TICK_BUDGET: usize = 1_000_000;
/// The drivers, in the order an epoch runs them.
pub const DRIVERS: [&str; 3] = ["optimistic", "boosting", "tl2"];

/// The input of epoch `epoch`.
pub fn epoch(seed: u64, epoch: u64) -> TmEpoch {
    gen::tm_epoch(seed, epoch, THREADS, TXNS, KEYS)
}

/// `[thread][transaction][operation]` as the drivers take it: one
/// straight-line `Code` per transaction.
pub fn programs<M: Clone>(threads: &[Vec<Vec<M>>]) -> Vec<Vec<Code<M>>> {
    threads
        .iter()
        .map(|txns| {
            txns.iter()
                .map(|ops| Code::seq_all(ops.iter().cloned().map(Code::method)))
                .collect()
        })
        .collect()
}

/// A driver system with the two accessors the benchmark reads. The
/// in-crate drivers expose `stats()` and `machine()` as inherent methods,
/// not through `TmSystem`.
pub trait Driver: ParallelSystem + Send + Sized {
    /// The machine's specification.
    type Spec: SeqSpec;
    /// `stats()`.
    fn driver_stats(&self) -> SystemStats;
    /// `machine()`.
    fn driver_machine(&self) -> &Machine<Self::Spec>;
}

impl Driver for OptimisticSystem<KvMap> {
    type Spec = KvMap;
    fn driver_stats(&self) -> SystemStats {
        self.stats()
    }
    fn driver_machine(&self) -> &Machine<KvMap> {
        self.machine()
    }
}

impl Driver for BoostingSystem<KvMap> {
    type Spec = KvMap;
    fn driver_stats(&self) -> SystemStats {
        self.stats()
    }
    fn driver_machine(&self) -> &Machine<KvMap> {
        self.machine()
    }
}

impl Driver for Tl2System {
    type Spec = pushpull_spec::rwmem::RwMem;
    fn driver_stats(&self) -> SystemStats {
        self.stats()
    }
    fn driver_machine(&self) -> &Machine<Self::Spec> {
        self.machine()
    }
}

/// A fresh optimistic system (snapshot reads) over `input`.
pub fn optimistic(input: &TmEpoch) -> OptimisticSystem<KvMap> {
    OptimisticSystem::new(KvMap::new(), programs(&input.kv), ReadPolicy::Snapshot)
}

/// A fresh boosting system over `input`.
pub fn boosting(input: &TmEpoch) -> BoostingSystem<KvMap> {
    BoostingSystem::new(KvMap::new(), programs(&input.kv))
}

/// A fresh TL2 system over `input`.
pub fn tl2(input: &TmEpoch) -> Tl2System {
    Tl2System::new(programs(&input.mem))
}

/// One driver's share of a pass.
#[derive(Debug, Default, Clone)]
pub struct DriverPass {
    /// Wall time inside `run_parallel`, summed.
    pub wall_ns: u64,
    /// Ticks `run_parallel` reported, summed.
    pub ticks: u64,
    /// Public counters, summed.
    pub counters: Counters,
}

/// Measurements of a pass of `tm_rw` epochs.
#[derive(Debug, Default)]
pub struct Pass {
    /// Epochs run.
    pub epochs: u64,
    /// Transactions attempted.
    pub attempted: u64,
    /// Transactions of runs that did not complete, or did not commit.
    pub failed: u64,
    /// Commits of the three drivers ÷ their summed wall, one per epoch.
    pub txn_per_s: Vec<f64>,
    /// The same per nominal second: the epoch's wall scaled by the median
    /// of the speed probes around its three driver runs (see
    /// [`crate::probe`]).
    pub txn_per_s_nominal: Vec<f64>,
    /// Summed wall of the three drivers, one per epoch.
    pub epoch_ms: Vec<f64>,
    /// Wall ÷ transactions per thread, one per driver per epoch: the mean
    /// time a thread spent per transaction, retries included, nominal µs.
    pub service_us: Vec<f64>,
    /// The speed probe on [`THREADS`] threads at once: before the first
    /// driver run and after every one, µs.
    pub probe_us: Vec<f64>,
    /// Seconds the pass spent probing.
    pub probe_s: f64,
    /// Per driver, in [`DRIVERS`] order.
    pub drivers: [DriverPass; 3],
    /// Oracle time of the verified epoch, when one was verified.
    pub oracle_ms: f64,
}

impl Pass {
    /// Runs the speed probe and books it.
    fn probe(&mut self) {
        let began = Instant::now();
        self.probe_us.push(probe_on(THREADS));
        self.probe_s += began.elapsed().as_secs_f64();
    }

    /// Median of the speed probes, µs.
    pub fn probe_median_us(&self) -> f64 {
        median(&self.probe_us)
    }
}

/// Hands driver `d` to `run_parallel`, timed, probes the sandbox's speed
/// after it (the caller did before it) and books the result. Returns
/// `(wall, commits)`.
fn run_driver<T: Driver>(
    d: usize,
    sys: T,
    verify: bool,
    pass: &mut Pass,
) -> Result<(u64, u64), String> {
    let began = Instant::now();
    let (sys, outcome) = run_parallel(sys, TICK_BUDGET, None)
        .map_err(|e| format!("run_parallel({}) failed: {e}", DRIVERS[d]))?;
    let wall_ns = began.elapsed().as_nanos() as u64;
    pass.probe();
    let stats = sys.driver_stats();
    let attempted = (THREADS * TXNS) as u64;
    let committed = if outcome.completed { stats.commits } else { 0 };
    if committed > attempted {
        return Err(format!(
            "{} committed {committed} of {attempted}",
            DRIVERS[d]
        ));
    }
    pass.attempted += attempted;
    pass.failed += attempted - committed;
    let dp = &mut pass.drivers[d];
    dp.wall_ns += wall_ns;
    dp.ticks += outcome.ticks as u64;
    // `run_parallel` owns its threads, so what they allocate is not
    // visible here; the deterministic rung counts allocations instead.
    dp.counters.add(
        &stats,
        sys.driver_machine(),
        outcome.ticks as u64,
        AllocCounts::default(),
    );
    if verify {
        let began = Instant::now();
        let report = check_machine(sys.driver_machine());
        pass.oracle_ms += began.elapsed().as_secs_f64() * 1e3;
        if !report.is_serializable() {
            return Err(format!("{} is not serializable: {report}", DRIVERS[d]));
        }
    }
    Ok((wall_ns, committed))
}

/// Runs epochs `first_epoch, first_epoch + 1, …` until `seconds` have
/// passed (at least one), or exactly `count` epochs when given; the first
/// epoch of each driver is checked by the serializability oracle when
/// `verify` is set. Returns the pass and the next unused epoch index.
pub fn run_pass(
    seed: u64,
    first_epoch: u64,
    seconds: f64,
    count: Option<u64>,
    verify: bool,
) -> Result<(Pass, u64), String> {
    let began = Instant::now();
    let mut pass = Pass::default();
    let mut next = first_epoch;
    pass.probe();
    loop {
        let input = epoch(seed, next);
        next += 1;
        let check = verify && pass.epochs == 0;
        let runs = [
            run_driver(0, optimistic(&input), check, &mut pass)?,
            run_driver(1, boosting(&input), check, &mut pass)?,
            run_driver(2, tl2(&input), check, &mut pass)?,
        ];
        let wall_ns: u64 = runs.iter().map(|r| r.0).sum();
        let commits: u64 = runs.iter().map(|r| r.1).sum();
        // The probes around this epoch's runs: the one before the first
        // and the one after each.
        let around = &pass.probe_us[pass.probe_us.len() - 1 - runs.len()..];
        let nominal = to_nominal(median(around));
        for (wall_ns, _) in runs {
            pass.service_us
                .push(wall_ns as f64 / 1e3 / TXNS as f64 * nominal);
        }
        let per_s = commits as f64 * 1e9 / wall_ns.max(1) as f64;
        pass.epochs += 1;
        pass.txn_per_s.push(per_s);
        pass.txn_per_s_nominal.push(per_s / nominal);
        pass.epoch_ms.push(wall_ns as f64 / 1e6);
        let enough = match count {
            Some(n) => pass.epochs >= n,
            None => began.elapsed().as_secs_f64() >= seconds,
        };
        if enough {
            return Ok((pass, next));
        }
    }
}

/// One set-up: generate and run the warm-up epochs. Returns nominal
/// seconds, the time spent probing taken out.
pub fn set_up(seed: u64) -> Result<f64, String> {
    let began = Instant::now();
    let (pass, _) = run_pass(seed, 0, 0.0, Some(WARMUP_EPOCHS), false)?;
    let seconds = began.elapsed().as_secs_f64() - pass.probe_s;
    Ok(seconds * to_nominal(pass.probe_median_us()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_verified_epoch_commits_everything() {
        let (pass, next) = run_pass(9, 0, 0.0, Some(1), true).unwrap();
        assert_eq!(next, 1);
        assert_eq!(pass.attempted, 3 * (THREADS * TXNS) as u64);
        assert_eq!(pass.failed, 0);
        assert_eq!(pass.service_us.len(), 3);
        assert_eq!(
            pass.probe_us.len(),
            4,
            "one probe before, one after each driver"
        );
        assert_eq!(pass.txn_per_s_nominal.len(), 1);
        assert!(pass.oracle_ms > 0.0);
        for d in &pass.drivers {
            assert_eq!(d.counters.commits, (THREADS * TXNS) as u64);
            assert!(d.wall_ns > 0 && d.ticks > 0);
        }
    }
}
