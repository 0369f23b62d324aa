//! The four `TxnServer<KvMap>` workloads, end to end: one epoch is a fresh
//! server of fixed size, drained to completion on two OS threads, timed,
//! checked and dropped.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pushpull_core::serializability::check_machine;
use pushpull_server::{assign_sessions, ServerConfig, SessionId, SessionOutcome, TxnServer};
use pushpull_spec::kvmap::{KvMap, MapMethod};
use pushpull_tm::driver::{ParallelSystem, Tick, TmSystem, Worker};

use crate::alloc::{thread_counts, AllocCounts};
use crate::gen::{self, KvEpoch};
use crate::measure::Counters;
use crate::probe::{probe_us, to_nominal};
use crate::stats::{median, percentile, percentile_of, ratio, Histogram};

/// Worker threads per server: the sandbox has two cores, and the load is
/// generated in-process on exactly these threads.
pub const WORKERS: usize = 2;
/// Shards of every server workload's shared log: the cap of the analyzer's
/// `recommended_shards()`.
pub const SHARDS: usize = 16;
/// The open-loop latency limit.
pub const LIMIT_NS: u64 = 500_000;
/// The open-loop primary rate, sessions per second.
pub const PRIMARY_RATE: u64 = 24_000;
/// The fixed open-loop rate ladder, ascending. At the seed, in the
/// sandbox, a quiet batch's 99th percentile crosses the limit between
/// 80 000 and 95 000 sessions/s depending on the minute, so the rungs are
/// 2× apart with that band in the middle of a gap: left alone, the seed
/// passes 60 000/s at a fifth of the limit and fails 120 000/s at twice
/// the limit.
pub const RATE_LADDER: [u64; 5] = [15_000, 30_000, 60_000, 120_000, 240_000];

/// The fixed definition of one server workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvShape {
    /// Workload name.
    pub name: &'static str,
    /// Sessions per epoch.
    pub sessions: usize,
    /// Handle slots per worker.
    pub slots: usize,
    /// Shared keys, or `None` for one private key per session.
    pub shared_keys: Option<u64>,
    /// Open loop (`arrival_period = 1`, paced by the benchmark)?
    pub open: bool,
    /// Untimed epochs run before the first timed one.
    pub warmup_epochs: usize,
    /// Epochs per batch. The driver threads are spawned once per batch, and
    /// its servers are built before and dropped after it together, so a
    /// batch is long enough to make the spawn a small share of it and no
    /// longer: what sixteen prebuilt servers spill out of a core's own
    /// cache is at the mercy of the host's shared one. An open-loop batch
    /// has a 99th-percentile latency of its own (see [`Pass`]), so it holds
    /// at least 1000 sessions.
    pub batch_epochs: usize,
    /// Ticks a worker may run before the epoch counts as not completed.
    pub tick_budget: usize,
}

/// `kv_fresh_short`.
pub const FRESH_SHORT: KvShape = KvShape {
    name: "kv_fresh_short",
    sessions: 64,
    slots: 16,
    shared_keys: None,
    open: false,
    warmup_epochs: 256,
    batch_epochs: 4,
    tick_budget: 1 << 10,
};

/// `kv_fresh_long`.
pub const FRESH_LONG: KvShape = KvShape {
    name: "kv_fresh_long",
    sessions: 4096,
    slots: 16,
    shared_keys: None,
    open: false,
    warmup_epochs: 1,
    batch_epochs: 1,
    tick_budget: 1 << 13,
};

/// `kv_reuse`.
pub const REUSE: KvShape = KvShape {
    name: "kv_reuse",
    sessions: 64,
    slots: 8,
    shared_keys: Some(16),
    open: false,
    warmup_epochs: 4,
    batch_epochs: 1,
    tick_budget: 1 << 16,
};

/// `kv_open`.
pub const OPEN: KvShape = KvShape {
    name: "kv_open",
    sessions: 256,
    slots: 16,
    shared_keys: None,
    open: true,
    warmup_epochs: 16,
    batch_epochs: 4,
    tick_budget: 1 << 12,
};

impl KvShape {
    /// The input of epoch `epoch` with `sessions` sessions.
    fn generate(&self, seed: u64, epoch: u64, sessions: usize) -> KvEpoch {
        match self.shared_keys {
            None => gen::fresh_epoch(seed, epoch, sessions),
            Some(keys) => gen::reuse_epoch(seed, epoch, sessions, keys),
        }
    }

    /// The input of epoch `epoch`.
    pub fn epoch(&self, seed: u64, epoch: u64) -> KvEpoch {
        self.generate(seed, epoch, self.sessions)
    }

    /// The verification epoch: the same generator, capped at 128 sessions
    /// because the oracle is super-cubic.
    pub fn verification_epoch(&self, seed: u64) -> KvEpoch {
        self.generate(seed, u64::MAX, self.sessions.min(128))
    }

    /// The server configuration of an epoch: default policy (group commit
    /// on), this shape's pool.
    pub fn config(&self, server_seed: u64) -> ServerConfig {
        ServerConfig {
            workers: WORKERS,
            slots_per_worker: self.slots,
            arrival_period: u64::from(self.open),
            seed: server_seed,
            ..ServerConfig::default()
        }
    }

    /// A fresh server over `epoch`, resharded.
    pub fn build(&self, epoch: &KvEpoch) -> TxnServer<KvMap> {
        let config = self.config(epoch.server_seed);
        let mut sys = TxnServer::new(KvMap::new(), epoch.scripts.clone(), config);
        sys.set_log_shards(SHARDS);
        sys
    }
}

/// Nanoseconds between the ticks of one worker at `rate` sessions per
/// second: every worker admits one session per tick.
pub fn tick_period_ns(rate: u64) -> u64 {
    WORKERS as u64 * 1_000_000_000 / rate
}

/// What one worker thread saw of an epoch.
#[derive(Debug)]
struct WorkerLog {
    start: Instant,
    /// End of tick `i + 1`, in nanoseconds from `start`.
    tick_end_ns: Vec<u64>,
    /// How far behind its due time paced tick `i + 1` began.
    late_ns: Vec<u64>,
    allocs: AllocCounts,
    done: bool,
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Where the driver threads meet before each epoch of a batch. They spin:
/// a sleeping barrier would hand the cores to whatever else is runnable
/// and start the epoch with a wake-up.
#[derive(Debug, Default)]
struct Gate {
    arrived: AtomicUsize,
}

impl Gate {
    /// Returns once every driver thread has arrived for `round`.
    fn wait(&self, round: usize) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        while self.arrived.load(Ordering::SeqCst) < (round + 1) * WORKERS {
            std::hint::spin_loop();
        }
    }
}

/// Ticks one worker until it reports `Done`. With a pace, tick `i` is due
/// at `start + i·pace`: the loop spins to the due time, never skips a
/// tick, and runs back to back while it is behind.
fn drive_worker(
    mut worker: Worker<'_>,
    gate: &Gate,
    round: usize,
    budget: usize,
    pace_ns: Option<u64>,
) -> Result<WorkerLog, String> {
    let mut tick_end_ns = Vec::with_capacity(budget);
    let mut late_ns = Vec::with_capacity(if pace_ns.is_some() { budget } else { 0 });
    let before = thread_counts();
    gate.wait(round);
    let start = Instant::now();
    let mut done = false;
    for i in 0..budget as u64 {
        if let Some(pace) = pace_ns {
            let due = i * pace;
            let mut now = elapsed_ns(start);
            while now < due {
                std::hint::spin_loop();
                now = elapsed_ns(start);
            }
            late_ns.push(now - due);
        }
        // A panic must come back as an error: the peer thread is waiting
        // at the gate of the next epoch.
        let tick = catch_unwind(AssertUnwindSafe(&mut worker))
            .map_err(|_| "a server tick panicked".to_string())?
            .map_err(|e| format!("machine error in a server tick: {e}"))?;
        tick_end_ns.push(elapsed_ns(start));
        match tick {
            Tick::Done => {
                done = true;
                break;
            }
            Tick::Blocked if pace_ns.is_none() => std::thread::yield_now(),
            _ => {}
        }
    }
    Ok(WorkerLog {
        start,
        tick_end_ns,
        late_ns,
        allocs: thread_counts().since(before),
        done,
    })
}

/// A drained epoch, before its outcomes are read.
#[derive(Debug)]
pub struct Drained {
    /// The server, its workers returned.
    pub sys: TxnServer<KvMap>,
    workers: Vec<WorkerLog>,
    pace_ns: Option<u64>,
    /// The speed probe beside the epoch's batch, µs (see [`drain_batch`]).
    probe_us: f64,
}

/// Builds a server over each of `epochs` and drains them one after the
/// other on [`WORKERS`] driver threads, which are spawned once for the
/// batch and meet at a gate before every epoch — so neither thread
/// start-up nor the scheduler settling two new threads onto two cores is
/// inside a timed epoch after the first. Each driver thread runs the speed
/// probe before its first epoch and after its last; the median of those
/// runs is the batch's probe time, which every epoch of the batch carries.
///
/// (One spawn per run is out of reach in safe Rust: a `Worker<'_>` borrows
/// its server, and a thread that outlives the batch would need that borrow
/// to be `'static`.)
pub fn drain_batch(
    shape: &KvShape,
    epochs: &[KvEpoch],
    pace_ns: Option<u64>,
) -> Result<Vec<Drained>, String> {
    let mut built: Vec<_> = epochs.iter().map(|e| shape.build(e)).collect();
    let gate = Gate::default();
    let mut probes = Vec::with_capacity(2 * WORKERS);
    let mut logs: Vec<Vec<Result<WorkerLog, String>>> = {
        let mut per_thread: Vec<Vec<Worker<'_>>> = (0..WORKERS).map(|_| Vec::new()).collect();
        for sys in &mut built {
            let workers = sys.workers();
            assert_eq!(workers.len(), WORKERS);
            for (thread, worker) in per_thread.iter_mut().zip(workers) {
                thread.push(worker);
            }
        }
        let gate = &gate;
        let budget = shape.tick_budget;
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_thread
                .into_iter()
                .map(|workers| {
                    scope.spawn(move || {
                        let before = probe_us();
                        let logs = workers
                            .into_iter()
                            .enumerate()
                            .map(|(round, w)| drive_worker(w, gate, round, budget, pace_ns))
                            .collect::<Vec<_>>();
                        (logs, [before, probe_us()])
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (logs, probe) = h.join().expect("driver threads catch their panics");
                    probes.extend(probe);
                    logs
                })
                .collect()
        })
    };
    let probe_us = median(&probes);
    // Transpose [thread][epoch] into [epoch][thread], last epoch first.
    let mut drained = Vec::with_capacity(built.len());
    while let Some(sys) = built.pop() {
        let workers = logs
            .iter_mut()
            .map(|t| t.pop().expect("one log per epoch"))
            .collect::<Result<Vec<_>, _>>()?;
        drained.push(Drained {
            sys,
            workers,
            pace_ns,
            probe_us,
        });
    }
    drained.reverse();
    Ok(drained)
}

/// Arrival and commit tick of a session on its worker's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTicks {
    /// The worker that served the session.
    pub worker: usize,
    /// The tick at which the session arrived.
    pub arrival: u64,
    /// The tick that committed it.
    pub commit: u64,
}

/// Reconstructs, from outside, when each committed session of an open-loop
/// epoch arrived and when it committed. `queues` is
/// `assign_sessions(S, W, seed)` and `latency[s]` the
/// `SessionOutcome::Committed.latency` of session `s`. The `j`-th session
/// of a worker's queue arrives at tick `max(1, j·period)` whatever the
/// others do, and commits at `arrival + latency − 1`.
pub fn reconstruct_ticks(
    queues: &[Vec<usize>],
    period: u64,
    latency: &[Option<u64>],
) -> Vec<Option<SessionTicks>> {
    let mut out = vec![None; latency.len()];
    for (worker, queue) in queues.iter().enumerate() {
        for (j, &s) in queue.iter().enumerate() {
            let arrival = (j as u64 * period).max(1);
            out[s] = latency[s].map(|l| SessionTicks {
                worker,
                arrival,
                commit: arrival + l - 1,
            });
        }
    }
    out
}

/// What the benchmark keeps of one epoch.
#[derive(Debug, Default)]
pub struct EpochDigest {
    /// Sessions in the epoch.
    pub attempted: u64,
    /// Sessions that did not end `Committed`, or were never served.
    pub failed: u64,
    /// First worker start to last worker end.
    pub wall_ns: u64,
    /// Open loop, per committed session: from the instant its arrival tick
    /// was due to the end of the tick that committed it.
    pub latency_ns: Vec<u64>,
    /// Per paced tick, in tick order per worker.
    pub late_ns: Vec<Vec<u64>>,
    /// Conflict retries of each committed session.
    pub retries: Vec<u64>,
    /// The speed probe beside the epoch's batch, µs.
    pub probe_us: f64,
}

impl Drained {
    /// Checks the epoch (every session accounted for; on private keys, the
    /// committed state is the generator's) and reads its measurements,
    /// adding the public counters to `counters`.
    pub fn digest(&self, epoch: &KvEpoch, counters: &mut Counters) -> Result<EpochDigest, String> {
        let cfg = *self.sys.config();
        let sessions = epoch.scripts.len();
        let outcomes = self.sys.outcomes();
        let complete = self.workers.iter().all(|w| w.done);
        if complete && outcomes.len() != sessions {
            return Err(format!(
                "{} outcomes for {sessions} sessions",
                outcomes.len()
            ));
        }
        let mut latency = vec![None; sessions];
        let mut retries = Vec::with_capacity(sessions);
        for (i, (id, outcome)) in outcomes.iter().enumerate() {
            if complete && *id != SessionId(i as u64) {
                return Err(format!("session {i} has no outcome, or two"));
            }
            if let SessionOutcome::Committed {
                latency: l,
                retries: r,
                ..
            } = outcome
            {
                latency[id.0 as usize] = Some(*l);
                retries.push(*r);
            }
        }
        let committed = retries.len() as u64;
        let stats = self.sys.stats();
        if stats.commits != committed {
            return Err(format!(
                "{committed} committed outcomes but stats().commits = {}",
                stats.commits
            ));
        }
        if let (Some(expected), true) = (&epoch.expected, committed as usize == sessions) {
            let mut state = BTreeMap::new();
            for op in self.sys.machine().global().committed_ops() {
                if let MapMethod::Put(k, v) = op.method {
                    state.insert(k, v);
                }
            }
            if !state
                .iter()
                .map(|(k, v)| (*k, *v))
                .eq(expected.iter().copied())
            {
                return Err("committed state differs from the generator's expected state".into());
            }
        }

        let mut latency_ns = Vec::new();
        if let Some(pace) = self.pace_ns {
            let queues = assign_sessions(sessions, WORKERS, cfg.seed);
            for t in reconstruct_ticks(&queues, cfg.arrival_period, &latency)
                .iter()
                .flatten()
            {
                let log = &self.workers[t.worker];
                let ran = log.tick_end_ns.len() as u64;
                if t.arrival < 1 || t.commit < t.arrival || t.commit > ran {
                    return Err(format!(
                        "reconstructed ticks {t:?} lie outside the {ran} ticks the worker ran"
                    ));
                }
                let end = log.tick_end_ns[t.commit as usize - 1];
                latency_ns.push(end.saturating_sub((t.arrival - 1) * pace));
            }
        }

        let first = self.workers.iter().map(|w| w.start).min();
        let last = self
            .workers
            .iter()
            .map(|w| w.start + std::time::Duration::from_nanos(*w.tick_end_ns.last().unwrap_or(&0)))
            .max();
        let wall_ns = match (first, last) {
            (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
            _ => 0,
        };
        let mut allocs = AllocCounts::default();
        for w in &self.workers {
            allocs += w.allocs;
        }
        let ran: u64 = self
            .workers
            .iter()
            .map(|w| w.tick_end_ns.len() as u64)
            .sum();
        counters.add(&stats, self.sys.machine(), ran, allocs);
        Ok(EpochDigest {
            attempted: sessions as u64,
            failed: sessions as u64 - committed,
            wall_ns,
            latency_ns,
            late_ns: self.workers.iter().map(|w| w.late_ns.clone()).collect(),
            retries,
            probe_us: self.probe_us,
        })
    }
}

/// Measurements of a pass: batches of epochs run back to back for a fixed
/// time. Latencies are **pooled** over the whole pass, and so is the share
/// over the limit. Beside the pooled 99th percentile the pass keeps each
/// batch's own, whose lower quartile over the batches is the *quiet*
/// companion: on two cores shared with the rest of the sandbox a driver
/// thread is descheduled for 1–4 ms several times a second, which reaches
/// about one session in a hundred and so decides the pooled 99th percentile
/// in a bad minute; a batch without such a gap shows the product's.
///
/// Throughput and the end-to-end median latency are also kept in
/// **nominal** time: each epoch's figure scaled by the speed probe beside
/// its batch (see [`crate::probe`]).
#[derive(Debug, Default)]
pub struct Pass {
    /// Epochs run.
    pub epochs: u64,
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that did not end as scripted.
    pub failed: u64,
    /// Open loop: committed sessions whose latency exceeded [`LIMIT_NS`].
    pub over_limit: u64,
    /// Committed sessions per second of wall time, one value per epoch.
    pub txn_per_s: Vec<f64>,
    /// Committed sessions per nominal second, one value per epoch.
    pub txn_per_s_nominal: Vec<f64>,
    /// Wall time, one value per epoch.
    pub epoch_ms: Vec<f64>,
    /// The speed probe beside the epoch's batch, one value per epoch, µs.
    pub probe_us: Vec<f64>,
    /// Seconds the pass spent probing.
    pub probe_s: f64,
    /// Open loop: latency of every committed session, ns.
    pub latency_ns: Histogram,
    /// The same latencies in nominal time, ns.
    pub latency_nominal_ns: Histogram,
    /// Closed loop, one value per epoch: the time a session spent in the
    /// pool, which with fixed concurrency is concurrency × wall ÷
    /// committed (Little's law), nominal µs.
    pub residence_us: Vec<f64>,
    /// 99th-percentile latency of each batch.
    pub batch_p99_us: Vec<f64>,
    /// Lateness of every paced tick, ns.
    pub late_ns: Histogram,
    /// Generator lateness summed over the first quarter of each worker's
    /// ticks, and the number of ticks summed.
    first_quarter: (u64, u64),
    /// The same over the final quarter.
    final_quarter: (u64, u64),
    /// `retries_hist[r]`: committed sessions that spent `r` retries.
    pub retries_hist: Vec<u64>,
    /// Public counters summed over the epochs.
    pub counters: Counters,
    /// Latencies of the open batch.
    batch_latency_ns: Vec<u64>,
}

fn mean((sum, n): (u64, u64)) -> f64 {
    ratio(sum as f64, n as f64)
}

impl Pass {
    /// Ends a batch: takes the 99th percentile of its pooled latencies.
    fn close_batch(&mut self) {
        self.batch_latency_ns.sort_unstable();
        if let Some(p99) = percentile(&self.batch_latency_ns, 99.0) {
            self.batch_p99_us.push(p99 as f64 / 1e3);
        }
        self.batch_latency_ns.clear();
    }

    /// Books one epoch; `closed` is the pool's concurrency in a closed
    /// loop, `None` in a paced one.
    fn take(&mut self, d: EpochDigest, closed: Option<usize>) {
        self.epochs += 1;
        self.attempted += d.attempted;
        self.failed += d.failed;
        let committed = (d.attempted - d.failed) as f64;
        let nominal = to_nominal(d.probe_us);
        let per_s = committed * 1e9 / d.wall_ns.max(1) as f64;
        self.txn_per_s.push(per_s);
        // A paced epoch completes what the generator offers, per second
        // of the wall clock that paces it: there is nothing to scale.
        self.txn_per_s_nominal.push(if closed.is_some() {
            per_s / nominal
        } else {
            per_s
        });
        self.epoch_ms.push(d.wall_ns as f64 / 1e6);
        self.probe_us.push(d.probe_us);
        if let Some(concurrency) = closed {
            self.residence_us.push(ratio(
                concurrency as f64 * d.wall_ns as f64 / 1e3 * nominal,
                committed,
            ));
        }
        for &l in &d.latency_ns {
            self.latency_ns.record(l);
            self.latency_nominal_ns.record((l as f64 * nominal) as u64);
            self.over_limit += u64::from(l > LIMIT_NS);
        }
        self.batch_latency_ns.extend_from_slice(&d.latency_ns);
        for r in d.retries {
            let r = r as usize;
            if r >= self.retries_hist.len() {
                self.retries_hist.resize(r + 1, 0);
            }
            self.retries_hist[r] += 1;
        }
        for late in d.late_ns {
            let q = late.len() / 4;
            let sum = |part: &[u64]| (part.iter().sum::<u64>(), part.len() as u64);
            let (first, last) = (sum(&late[..q]), sum(&late[late.len() - q..]));
            self.first_quarter.0 += first.0;
            self.first_quarter.1 += first.1;
            self.final_quarter.0 += last.0;
            self.final_quarter.1 += last.1;
            for l in late {
                self.late_ns.record(l);
            }
        }
    }

    /// Percentile `p` of latency over every committed session of an
    /// open-loop pass, wall-clock µs.
    pub fn lat_us(&self, p: f64) -> f64 {
        self.latency_ns.percentile(p) / 1e3
    }

    /// Median latency in nominal µs: over every committed session of an
    /// open-loop pass, over the epochs' residence times of a closed-loop
    /// one.
    pub fn lat_p50_nominal_us(&self) -> f64 {
        if self.residence_us.is_empty() {
            self.latency_nominal_ns.percentile(50.0) / 1e3
        } else {
            percentile_of(&self.residence_us, 50.0)
        }
    }

    /// Median of the batches' speed probes, µs.
    pub fn probe_median_us(&self) -> f64 {
        median(&self.probe_us)
    }

    /// Lower quartile over batches of the batches' 99th-percentile
    /// latency, µs.
    pub fn lat_p99_quiet_us(&self) -> f64 {
        percentile_of(&self.batch_p99_us, 25.0)
    }

    /// Sessions over the limit, failed or refused ÷ sessions attempted.
    pub fn miss_share(&self) -> f64 {
        ratio(
            (self.over_limit + self.failed) as f64,
            self.attempted as f64,
        )
    }

    /// 99th percentile of the paced ticks' lateness, µs.
    pub fn gen_late_p99_us(&self) -> f64 {
        self.late_ns.percentile(99.0) / 1e3
    }

    /// Mean generator lateness over the final quarter of each worker's
    /// ticks minus that over the first quarter, µs: a backlog that grows
    /// through the epochs.
    pub fn backlog_growth_us(&self) -> f64 {
        (mean(self.final_quarter) - mean(self.first_quarter)) / 1e3
    }

    /// The retry count at the nearest-rank percentile `p`.
    pub fn retries_percentile(&self, p: f64) -> f64 {
        let total: u64 = self.retries_hist.iter().sum();
        let rank = ((p / 100.0 * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (r, n) in self.retries_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return r as f64;
            }
        }
        0.0
    }
}

/// Runs one batch — `size` epochs from `*next` on, which it advances —
/// into `pass`.
fn run_batch(
    shape: &KvShape,
    seed: u64,
    next: &mut u64,
    size: usize,
    pace_ns: Option<u64>,
    pass: &mut Pass,
) -> Result<(), String> {
    let epochs: Vec<_> = (*next..*next + size as u64)
        .map(|e| shape.epoch(seed, e))
        .collect();
    *next += size as u64;
    let drained = drain_batch(shape, &epochs, pace_ns)?;
    // Every driver thread probed before and after the batch.
    pass.probe_s += drained.first().map_or(0.0, |d| 2.0 * d.probe_us / 1e6);
    for (drained, epoch) in drained.iter().zip(&epochs) {
        let digest = drained.digest(epoch, &mut pass.counters)?;
        pass.take(digest, pace_ns.is_none().then_some(WORKERS * shape.slots));
    }
    pass.close_batch();
    Ok(())
}

/// Runs batches of epochs `first_epoch, first_epoch + 1, …` of `shape`
/// until `seconds` have passed (at least one batch), or exactly `count`
/// epochs when given. Returns the pass and the next unused epoch index.
pub fn run_pass(
    shape: &KvShape,
    seed: u64,
    first_epoch: u64,
    seconds: f64,
    count: Option<usize>,
    pace_ns: Option<u64>,
) -> Result<(Pass, u64), String> {
    let began = Instant::now();
    let mut pass = Pass::default();
    let mut next = first_epoch;
    loop {
        let left = count.map_or(usize::MAX, |n| n - pass.epochs as usize);
        let size = shape.batch_epochs.min(left);
        run_batch(shape, seed, &mut next, size, pace_ns, &mut pass)?;
        let enough = match count {
            Some(n) => pass.epochs as usize >= n,
            None => began.elapsed().as_secs_f64() >= seconds,
        };
        if enough {
            return Ok((pass, next));
        }
    }
}

/// Runs the rate ladder for `seconds`: round after round, one batch at
/// each rung in turn, so that a slow second of the sandbox costs every
/// rung a batch and no rung its verdict. Returns one pass per rung.
pub fn run_ladder(
    shape: &KvShape,
    seed: u64,
    first_epoch: u64,
    seconds: f64,
) -> Result<Vec<Pass>, String> {
    let began = Instant::now();
    let mut passes: Vec<Pass> = RATE_LADDER.iter().map(|_| Pass::default()).collect();
    let mut next = first_epoch;
    loop {
        for (rate, pass) in RATE_LADDER.iter().zip(&mut passes) {
            let pace = Some(tick_period_ns(*rate));
            run_batch(shape, seed, &mut next, shape.batch_epochs, pace, pass)?;
        }
        if began.elapsed().as_secs_f64() >= seconds {
            return Ok(passes);
        }
    }
}

/// The pace of a shape's primary measurement.
pub fn primary_pace_ns(shape: &KvShape) -> Option<u64> {
    shape.open.then(|| tick_period_ns(PRIMARY_RATE))
}

/// One set-up: generate and drain the warm-up epochs. Returns seconds —
/// nominal ones for a closed loop — with the time spent probing taken out.
pub fn set_up(shape: &KvShape, seed: u64) -> Result<f64, String> {
    let began = Instant::now();
    let (pass, _) = run_pass(
        shape,
        seed,
        0,
        0.0,
        Some(shape.warmup_epochs),
        primary_pace_ns(shape),
    )?;
    let seconds = began.elapsed().as_secs_f64() - pass.probe_s;
    // A paced set-up waits on the wall clock: there is nothing to scale.
    let nominal = if shape.open {
        1.0
    } else {
        to_nominal(pass.probe_median_us())
    };
    Ok(seconds * nominal)
}

/// Drains the verification epoch and runs the serializability oracle on
/// it. Returns the oracle's time in milliseconds.
pub fn verify(shape: &KvShape, seed: u64) -> Result<f64, String> {
    let epoch = shape.verification_epoch(seed);
    let drained = drain_batch(shape, std::slice::from_ref(&epoch), primary_pace_ns(shape))?
        .pop()
        .expect("one epoch in, one out");
    let digest = drained.digest(&epoch, &mut Counters::default())?;
    if digest.failed > 0 {
        return Err(format!(
            "{} sessions of the verification epoch failed",
            digest.failed
        ));
    }
    let began = Instant::now();
    let report = check_machine(drained.sys.machine());
    let ms = began.elapsed().as_secs_f64() * 1e3;
    if !report.is_serializable() {
        return Err(format!("verification epoch is not serializable: {report}"));
    }
    Ok(ms)
}

/// Whether a pass at one rate of the ladder keeps within the limit: no
/// session failed, `lat_p99_us` (the pass's pooled 99th percentile, or its
/// quiet one) is within [`LIMIT_NS`], and the generator's backlog does not
/// grow by more than the limit.
pub fn rung_ok(pass: &Pass, lat_p99_us: f64) -> bool {
    let limit_us = LIMIT_NS as f64 / 1e3;
    pass.failed == 0 && lat_p99_us <= limit_us && pass.backlog_growth_us() <= limit_us
}

/// The highest rate that passes with every rate below it passing, or 0.
pub fn max_rate_ok(rungs: impl IntoIterator<Item = (u64, bool)>) -> u64 {
    rungs
        .into_iter()
        .take_while(|(_, ok)| *ok)
        .last()
        .map_or(0, |(rate, _)| rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::op::ThreadId;

    /// Drives `shape` deterministically, one worker tick at a time,
    /// observing `stats().sessions` between ticks: how many sessions each
    /// tick of each worker finished.
    fn observed_finishes(shape: &KvShape, epoch: &KvEpoch) -> (TxnServer<KvMap>, Vec<Vec<u64>>) {
        let mut sys = shape.build(epoch);
        let mut per_tick = vec![Vec::new(); WORKERS];
        let mut seen = 0;
        let mut step = 0;
        while !sys.is_done() {
            let w = step % WORKERS;
            sys.tick(ThreadId(w)).unwrap();
            let now = sys.stats().sessions;
            per_tick[w].push(now - seen);
            seen = now;
            step += 1;
            assert!(step < 1_000_000, "server did not drain");
        }
        (sys, per_tick)
    }

    fn check_reconstruction(shape: &KvShape, epoch: &KvEpoch) {
        let (sys, per_tick) = observed_finishes(shape, epoch);
        let cfg = *sys.config();
        let mut latency = vec![None; epoch.scripts.len()];
        for (id, o) in sys.outcomes() {
            if let SessionOutcome::Committed { latency: l, .. } = o {
                latency[id.0 as usize] = Some(*l);
            }
        }
        assert!(latency.iter().all(Option::is_some), "every session commits");
        let queues = assign_sessions(epoch.scripts.len(), WORKERS, cfg.seed);
        let ticks = reconstruct_ticks(&queues, cfg.arrival_period, &latency);
        let mut rebuilt: Vec<Vec<u64>> = per_tick.iter().map(|t| vec![0; t.len()]).collect();
        for t in ticks {
            let t = t.expect("every committed session is placed");
            assert!(t.arrival >= 1 && t.arrival <= t.commit);
            rebuilt[t.worker][t.commit as usize - 1] += 1;
        }
        assert_eq!(rebuilt, per_tick, "{}", shape.name);
    }

    #[test]
    fn open_loop_commit_ticks_match_a_deterministic_drive() {
        // One slot per worker forces queueing, so latencies exceed 1.
        let narrow = KvShape { slots: 1, ..OPEN };
        for shape in [OPEN, narrow] {
            check_reconstruction(&shape, &shape.epoch(11, 0));
        }
    }

    #[test]
    fn a_failed_session_is_left_out_and_its_peers_are_placed() {
        let queues = vec![vec![0, 1], vec![2]];
        let latency = vec![Some(1), None, Some(2)];
        let ticks = reconstruct_ticks(&queues, 1, &latency);
        assert_eq!(ticks[0].map(|t| (t.arrival, t.commit)), Some((1, 1)));
        assert_eq!(ticks[1], None);
        assert_eq!(
            ticks[2],
            Some(SessionTicks {
                worker: 1,
                arrival: 1,
                commit: 2
            })
        );
    }

    #[test]
    fn parallel_epoch_is_checked_and_measured() {
        let epoch = FRESH_SHORT.epoch(3, 0);
        let drained = &drain_batch(&FRESH_SHORT, std::slice::from_ref(&epoch), None).unwrap()[0];
        let mut counters = Counters::default();
        let d = drained.digest(&epoch, &mut counters).unwrap();
        assert_eq!((d.attempted, d.failed), (64, 0));
        assert!(d.latency_ns.is_empty(), "a closed loop has no due times");
        assert!(d.wall_ns > 0 && d.probe_us > 0.0);
        assert_eq!(counters.commits, 64);
        assert!(counters.allocs.count > 0 && counters.lock_acquires > 0);
        // A wrong expectation is caught.
        let mut wrong = epoch.clone();
        wrong.expected.as_mut().unwrap()[5].1 += 1;
        assert!(drained.digest(&wrong, &mut counters).is_err());
    }

    #[test]
    fn nominal_figures_scale_with_the_probe_beside_the_epoch() {
        // A sandbox at half its usual speed: the probe takes twice as long.
        let slow = |latency_ns| EpochDigest {
            attempted: 10,
            wall_ns: 1_000_000,
            latency_ns,
            probe_us: 2.0 * crate::probe::NOMINAL_US,
            ..EpochDigest::default()
        };
        let mut closed = Pass::default();
        closed.take(slow(Vec::new()), Some(4));
        assert_eq!(closed.txn_per_s, [10_000.0]);
        assert_eq!(closed.txn_per_s_nominal, [20_000.0]);
        // 4 slots × 1 ms ÷ 10 sessions, halved.
        assert_eq!(closed.lat_p50_nominal_us(), 200.0);
        let mut paced = Pass::default();
        paced.take(slow(vec![100; 10]), None);
        assert_eq!(paced.txn_per_s_nominal, paced.txn_per_s);
        assert_eq!(paced.lat_us(50.0), 0.1);
        assert_eq!(paced.lat_p50_nominal_us(), 0.05);
    }

    #[test]
    fn paced_epoch_reports_lateness_and_due_time_latency() {
        let epoch = OPEN.epoch(3, 0);
        let pace = tick_period_ns(PRIMARY_RATE);
        let drained = &drain_batch(&OPEN, std::slice::from_ref(&epoch), Some(pace)).unwrap()[0];
        let d = drained.digest(&epoch, &mut Counters::default()).unwrap();
        assert_eq!(d.failed, 0);
        assert_eq!(d.latency_ns.len(), OPEN.sessions);
        assert_eq!(d.late_ns.len(), WORKERS);
        // 128 sessions per worker, one per tick: the epoch cannot end
        // before the last one is due.
        assert!(d.wall_ns >= 126 * pace, "{} < {}", d.wall_ns, 126 * pace);
    }

    #[test]
    fn ladder_takes_the_highest_rung_below_the_first_failure() {
        assert_eq!(max_rate_ok([(1, true), (2, true), (3, false)]), 2);
        assert_eq!(max_rate_ok([(1, true), (2, false), (3, true)]), 1);
        assert_eq!(max_rate_ok([(1, false)]), 0);
        for w in RATE_LADDER.windows(2) {
            assert!(w[1] * 2 >= w[0] * 3, "rungs are at least 1.5x apart");
        }
    }
}
