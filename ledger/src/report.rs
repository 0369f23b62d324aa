//! The metric registry and the two kinds of run: end to end (tracing off)
//! and per layer (counters, ladder, spans).

use pushpull_spec::kvmap::KvMap;

use crate::gen::InputHash;
use crate::kv::{self, KvShape};
use crate::ladder::{self, Rung, RungRun};
use crate::measure::{peak_rss_mb, Counters};
use crate::stats::{median, percentile_of, ratio};
use crate::tm;
use crate::trace::{self_times, sum_named, Span, SpanSum, Tracer};

/// The workloads, in the order a full run takes them.
pub const WORKLOADS: [&str; 5] = [
    "kv_fresh_short",
    "kv_fresh_long",
    "kv_reuse",
    "kv_open",
    "tm_rw",
];

/// End-to-end metrics: name and unit. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("txn_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics that do not name a driver: name and unit.
const PER_LAYER: [(&str, &str); 47] = [
    ("spec.allowed_ns_per_op", "ns"),
    ("spec.mover_ns_per_query", "ns"),
    ("core.handle.ns_per_txn", "ns"),
    ("core.handle.app_ns_per_op", "ns"),
    ("core.handle.push_commit_ns_per_txn", "ns"),
    ("core.handle.pull_ns_per_call", "ns"),
    ("core.handle.pulled_ops_per_call", "count"),
    ("core.handle.abort_ns_per_call", "ns"),
    ("core.handle.allocs_per_txn", "count"),
    ("core.global.lock_acquires_per_txn", "count"),
    ("core.global.lock_contended_share", "ratio"),
    ("core.global.snap_retry_share", "ratio"),
    ("core.global.snap_fallback_share", "ratio"),
    ("core.global.arena_reuse_share", "ratio"),
    ("core.audit.allowed_queries_per_txn", "count"),
    ("core.audit.mover_queries_per_txn", "count"),
    ("core.audit.violated_per_txn", "count"),
    ("core.group.batch_size_mean", "count"),
    ("core.group.batched_share", "ratio"),
    ("core.group.fallbacks_per_txn", "count"),
    ("core.group.commit_group_ns_per_txn", "ns"),
    ("server.tick_ns_per_txn", "ns"),
    ("server.self_ns_per_txn", "ns"),
    ("server.allocs_per_txn", "count"),
    ("server.aborts_per_commit", "ratio"),
    ("server.retries_p99", "count"),
    ("server.ticks_per_epoch", "count"),
    ("harness.parallel_speedup", "ratio"),
    ("harness.gen_late_p99_us", "us"),
    ("harness.oracle_ms", "ms"),
    ("harness.probe_us", "us"),
    ("harness.txn_per_s_wall", "1/s"),
    ("alloc.count_per_txn", "count"),
    ("alloc.bytes_per_txn", "B"),
    ("epoch_ms_p10", "ms"),
    ("epoch_ms_p90", "ms"),
    ("ladder.residual_share", "ratio"),
    ("ladder.counts_repeat", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("fail_share", "ratio"),
    ("miss_share", "ratio"),
    ("lat_p90_us", "us"),
    ("lat_p99_us", "us"),
    ("lat_p99_quiet_us", "us"),
    ("max_rate_ok", "1/s"),
    ("max_rate_quiet_ok", "1/s"),
];

/// Per-driver metrics of the `tm` layer: suffix and unit.
const PER_DRIVER: [(&str, &str); 5] = [
    ("txn_per_s", "1/s"),
    ("tick_ns_per_txn", "ns"),
    ("self_ns_per_txn", "ns"),
    ("aborts_per_commit", "ratio"),
    ("blocked_tick_share", "ratio"),
];

/// Every per-layer metric: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<_> = PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for d in tm::DRIVERS {
        for (suffix, unit) in PER_DRIVER {
            all.push((format!("tm.{d}.{suffix}"), unit));
        }
    }
    all
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Sessions or transactions attempted in the measured epochs.
    pub attempted: u64,
    /// Those that did not end as scripted.
    pub failed: u64,
    /// Metric values by name. A per-layer metric a workload does not
    /// exercise stays unset and prints as 0.
    pub metrics: Vec<(String, f64)>,
    /// Free-form lines printed above the metrics.
    pub notes: Vec<String>,
    /// Spans of the traced pass, for `--trace-out`.
    pub spans: Vec<Span>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            self.metrics.iter().all(|(n, _)| n != name),
            "metric {name} set twice"
        );
        self.metrics.push((name.to_string(), value));
    }

    /// The value of `name`, or 0 when the workload does not report it.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Set-ups per run; the run reports their median.
const SETUP_REPS: usize = 7;
/// Share of a per-layer run's seconds spent on end-to-end epochs.
const LAYER_E2E_SHARE: f64 = 0.3;
/// Share of an open-loop per-layer run's seconds spent on the rate ladder.
const LAYER_RATES_SHARE: f64 = 0.3;
/// Share of a per-layer run's seconds the untraced rungs may repeat for.
const LAYER_LADDER_SHARE: f64 = 0.4;
/// Executions of each rung at most.
const RUNG_MAX_ROUNDS: usize = 2000;

fn kv_shape(workload: &str) -> Option<KvShape> {
    [kv::FRESH_SHORT, kv::FRESH_LONG, kv::REUSE, kv::OPEN]
        .into_iter()
        .find(|s| s.name == workload)
}

fn input_hash_note(hash: InputHash) -> String {
    use std::hash::Hasher;
    format!("input_hash = {:016x} (epochs 0 and 1)", hash.finish())
}

fn kv_input_hash(shape: &KvShape, seed: u64) -> String {
    let mut h = InputHash::default();
    shape.epoch(seed, 0).hash_into(&mut h);
    shape.epoch(seed, 1).hash_into(&mut h);
    input_hash_note(h)
}

fn tm_input_hash(seed: u64) -> String {
    let mut h = InputHash::default();
    tm::epoch(seed, 0).hash_into(&mut h);
    tm::epoch(seed, 1).hash_into(&mut h);
    input_hash_note(h)
}

fn median_set_up(mut one: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let times = (0..SETUP_REPS)
        .map(|_| one())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&times))
}

/// The end-to-end run of `workload`: set-up (repeated, median), timed
/// epochs for `seconds` with tracing off, verification.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = match kv_shape(workload) {
        Some(shape) => end_to_end_kv(&shape, seed, seconds)?,
        None if workload == "tm_rw" => end_to_end_tm(seed, seconds)?,
        None => return Err(format!("unknown workload {workload}")),
    };
    r.set("peak_rss_mb", peak_rss_mb()?);
    Ok(r)
}

fn quartiles_note(what: &str, samples: &[f64]) -> String {
    format!(
        "{what} over {} samples: quartiles {:.4} / {:.4} / {:.4}",
        samples.len(),
        percentile_of(samples, 25.0),
        median(samples),
        percentile_of(samples, 75.0)
    )
}

fn end_to_end_kv(shape: &KvShape, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    r.notes.push(kv_input_hash(shape, seed));
    r.set("setup_s", median_set_up(|| kv::set_up(shape, seed))?);
    let first = shape.warmup_epochs as u64;
    let (pass, _) = kv::run_pass(
        shape,
        seed,
        first,
        seconds,
        None,
        kv::primary_pace_ns(shape),
    )?;
    r.attempted = pass.attempted;
    r.failed = pass.failed;
    r.set("txn_per_s", median(&pass.txn_per_s_nominal));
    r.set("lat_p50_us", pass.lat_p50_nominal_us());
    r.set(
        "ok_share",
        1.0 - ratio(pass.failed as f64, pass.attempted as f64),
    );
    r.notes
        .push(quartiles_note("txn_per_s", &pass.txn_per_s_nominal));
    r.notes
        .push(quartiles_note("wall-clock txn_per_s", &pass.txn_per_s));
    r.notes.push(quartiles_note("probe_us", &pass.probe_us));
    if shape.open {
        r.notes.push(format!(
            "{} latency samples in {} batches, wall-clock: p50 {:.3} us, p90 {:.3} us, p99 {:.3} us pooled, {:.3} us quiet; {} over the limit",
            pass.latency_ns.count(),
            pass.batch_p99_us.len(),
            pass.lat_us(50.0),
            pass.lat_us(90.0),
            pass.lat_us(99.0),
            pass.lat_p99_quiet_us(),
            pass.over_limit
        ));
    } else {
        r.notes.push(format!(
            "latency is the epochs' residence time, {} slots x wall / committed",
            kv::WORKERS * shape.slots
        ));
    }
    let oracle_ms = kv::verify(shape, seed)?;
    r.notes.push(format!(
        "verification epoch serializable ({oracle_ms:.1} ms)"
    ));
    Ok(r)
}

fn end_to_end_tm(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    r.notes.push(tm_input_hash(seed));
    r.set("setup_s", median_set_up(|| tm::set_up(seed))?);
    let (pass, _) = tm::run_pass(seed, tm::WARMUP_EPOCHS, seconds, None, true)?;
    r.attempted = pass.attempted;
    r.failed = pass.failed;
    r.set("txn_per_s", median(&pass.txn_per_s_nominal));
    // A closed loop of one client per thread, so as on the closed server
    // workloads latency is concurrency × wall ÷ committed: a run's wall
    // over the transactions each thread ran.
    r.set("lat_p50_us", percentile_of(&pass.service_us, 50.0));
    r.set(
        "ok_share",
        1.0 - ratio(pass.failed as f64, pass.attempted as f64),
    );
    r.notes
        .push(quartiles_note("txn_per_s", &pass.txn_per_s_nominal));
    r.notes
        .push(quartiles_note("wall-clock txn_per_s", &pass.txn_per_s));
    r.notes.push(quartiles_note("probe_us", &pass.probe_us));
    r.notes.push(format!(
        "{} service-time samples; first epoch of each driver serializable ({:.1} ms)",
        pass.service_us.len(),
        pass.oracle_ms
    ));
    Ok(r)
}

/// Sets the metrics read from public counters after end-to-end epochs.
fn set_counter_metrics(r: &mut Report, c: &Counters) {
    r.set(
        "core.global.lock_acquires_per_txn",
        c.per_txn(c.lock_acquires),
    );
    r.set(
        "core.global.lock_contended_share",
        ratio(c.lock_contended as f64, c.lock_acquires as f64),
    );
    r.set(
        "core.global.snap_retry_share",
        ratio(c.snap_retries as f64, c.snap_reads as f64),
    );
    r.set(
        "core.global.snap_fallback_share",
        ratio(
            c.snap_fallbacks as f64,
            (c.snap_reads + c.snap_fallbacks) as f64,
        ),
    );
    r.set(
        "core.global.arena_reuse_share",
        ratio(
            c.arena_reused as f64,
            (c.arena_reused + c.arena_capacity) as f64,
        ),
    );
    r.set(
        "core.audit.allowed_queries_per_txn",
        c.per_txn(c.allowed_queries),
    );
    r.set(
        "core.audit.mover_queries_per_txn",
        c.per_txn(c.mover_queries),
    );
    r.set("core.audit.violated_per_txn", c.per_txn(c.violated));
    r.set(
        "core.group.batch_size_mean",
        ratio(c.group_txns as f64, c.group_batches as f64),
    );
    r.set("core.group.batched_share", c.per_txn(c.group_txns));
    r.set("core.group.fallbacks_per_txn", c.per_txn(c.group_fallbacks));
}

fn per_txn(ns: f64, run: &RungRun) -> f64 {
    ratio(ns, run.counters.commits as f64)
}

fn per_call(sum: SpanSum) -> f64 {
    ratio(sum.total_ns as f64, sum.calls as f64)
}

/// Sets the `core.handle.*` metrics from the untraced handle rung(s) and
/// the spans of their one traced execution each. With several rungs (one
/// per `tm_rw` program set) the figures pool them. Also notes how much of a
/// traced rung is the benchmark's own loop: the root span's self time.
fn set_handle_metrics(r: &mut Report, handle: &[Rung], spans: &[Span], own: &[u64]) {
    let ns: f64 = handle.iter().map(|h| h.ns).sum();
    let commits: u64 = handle.iter().map(|h| h.run.counters.commits).sum();
    let allocs: u64 = handle.iter().map(|h| h.run.counters.allocs.count).sum();
    let pulls: u64 = handle.iter().map(|h| h.run.pulls).sum();
    let pulled: u64 = handle.iter().map(|h| h.run.pulled_ops).sum();
    r.set("core.handle.ns_per_txn", ratio(ns, commits as f64));
    r.set(
        "core.handle.allocs_per_txn",
        ratio(allocs as f64, commits as f64),
    );
    r.set(
        "core.handle.pulled_ops_per_call",
        ratio(pulled as f64, pulls as f64),
    );
    let sum = |name| sum_named(spans, own, name);
    r.set(
        "core.handle.push_commit_ns_per_txn",
        ratio(
            sum("core.handle.push_commit").total_ns as f64,
            commits as f64,
        ),
    );
    let root = sum("core.handle.rung");
    r.notes.push(format!(
        "traced core.handle rung: {:.1} % of its time is the benchmark's own loop (root self time)",
        100.0 * ratio(root.self_ns as f64, root.total_ns as f64)
    ));
    r.set(
        "core.handle.app_ns_per_op",
        per_call(sum("core.handle.app")),
    );
    r.set(
        "core.handle.pull_ns_per_call",
        per_call(sum("core.handle.pull")),
    );
    r.set(
        "core.handle.abort_ns_per_call",
        per_call(sum("core.handle.abort")),
    );
}

fn exact_note(name: &str, rung: &Rung) -> String {
    let c = &rung.run.counters;
    format!(
        "rung {name}: {} executions, median {:.3} ms; commits {} aborts {} locks {} \
         allowed {} movers {} allocs {} ticks {}{}",
        rung.reps,
        rung.ns / 1e6,
        c.commits,
        c.aborts,
        c.lock_acquires,
        c.allowed_queries,
        c.mover_queries,
        c.allocs.count,
        c.ticks,
        if rung.exact {
            ""
        } else {
            " — COUNTS DIFFER BETWEEN EXECUTIONS"
        }
    )
}

/// The per-layer run of `workload`: end-to-end epochs for the public
/// counters, then the ladder, untraced (timed, repeated) and traced (once).
pub fn per_layer_run(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    match kv_shape(workload) {
        Some(shape) => per_layer_kv(&shape, seed, seconds),
        None if workload == "tm_rw" => per_layer_tm(seed, seconds),
        None => Err(format!("unknown workload {workload}")),
    }
}

/// Runs the open-loop rate ladder and sets `max_rate_ok`, judged on each
/// rung's pooled 99th percentile, and `max_rate_quiet_ok`, on its quiet one.
fn set_max_rates(
    r: &mut Report,
    shape: &KvShape,
    seed: u64,
    first_epoch: u64,
    seconds: f64,
) -> Result<(), String> {
    let passes = kv::run_ladder(shape, seed, first_epoch, seconds)?;
    let (mut pooled, mut quiet) = (Vec::new(), Vec::new());
    for (rate, pass) in kv::RATE_LADDER.into_iter().zip(&passes) {
        let (p99, p99_quiet) = (pass.lat_us(99.0), pass.lat_p99_quiet_us());
        pooled.push((rate, kv::rung_ok(pass, p99)));
        quiet.push((rate, kv::rung_ok(pass, p99_quiet)));
        r.notes.push(format!(
            "rate {rate}/s: {} sessions, p99 {p99:.1} us pooled, {p99_quiet:.1} us quiet, backlog growth {:.1} us",
            pass.attempted,
            pass.backlog_growth_us(),
        ));
        r.attempted += pass.attempted;
        r.failed += pass.failed;
    }
    r.set("max_rate_ok", kv::max_rate_ok(pooled) as f64);
    r.set("max_rate_quiet_ok", kv::max_rate_ok(quiet) as f64);
    Ok(())
}

fn per_layer_kv(shape: &KvShape, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    r.notes.push(kv_input_hash(shape, seed));
    kv::set_up(shape, seed)?;
    let first = shape.warmup_epochs as u64;
    let (pass, next) = kv::run_pass(
        shape,
        seed,
        first,
        seconds * LAYER_E2E_SHARE,
        None,
        kv::primary_pace_ns(shape),
    )?;
    r.attempted = pass.attempted;
    r.failed = pass.failed;
    let c = &pass.counters;
    set_counter_metrics(&mut r, c);
    r.set("server.aborts_per_commit", c.per_txn(c.aborts));
    r.set("server.retries_p99", pass.retries_percentile(99.0));
    r.set(
        "server.ticks_per_epoch",
        ratio(c.ticks as f64, pass.epochs as f64),
    );
    r.set("harness.gen_late_p99_us", pass.gen_late_p99_us());
    r.set("harness.oracle_ms", kv::verify(shape, seed)?);
    r.set("harness.probe_us", pass.probe_median_us());
    r.set("harness.txn_per_s_wall", median(&pass.txn_per_s));
    if shape.open {
        r.set("lat_p90_us", pass.lat_us(90.0));
        r.set("lat_p99_us", pass.lat_us(99.0));
        r.set("lat_p99_quiet_us", pass.lat_p99_quiet_us());
        r.set("miss_share", pass.miss_share());
        set_max_rates(&mut r, shape, seed, next, seconds * LAYER_RATES_SHARE)?;
    }
    r.set("alloc.count_per_txn", c.per_txn(c.allocs.count));
    r.set("alloc.bytes_per_txn", c.per_txn(c.allocs.bytes));
    r.set("epoch_ms_p10", percentile_of(&pass.epoch_ms, 10.0));
    r.set("epoch_ms_p90", percentile_of(&pass.epoch_ms, 90.0));
    r.set(
        "fail_share",
        ratio(pass.failed as f64, pass.attempted as f64),
    );
    let wall_ns = median(&pass.epoch_ms) * 1e6;

    // The ladder, on the first timed epoch's input.
    let epoch = shape.epoch(seed, first);
    let queues = ladder::kv_queues(&epoch);
    let handle_at = |group: bool| {
        let queues = &queues;
        move |tr: &mut Tracer| {
            ladder::handle_rung(KvMap::new(), kv::SHARDS, queues, shape.slots, group, tr)
        }
    };
    // The traced handle rung takes its turn among the untraced rungs, so
    // the tracing overhead is a difference of like medians; the buffer
    // keeps the spans of its last execution.
    let mut tr = Tracer::on(shape.sessions * 96 + 4096);
    tr.set_epoch(first as u32);
    let [handle, group, server, handle_traced]: [Rung; 4] = ladder::repeat(
        seconds * LAYER_LADDER_SHARE,
        RUNG_MAX_ROUNDS,
        &mut [
            &mut handle_at(false),
            &mut handle_at(true),
            &mut |tr| ladder::server_rung(shape, &epoch, tr).map(|(run, _)| run),
            &mut |_| {
                tr.clear();
                handle_at(false)(&mut tr)
            },
        ],
    )?
    .try_into()
    .expect("one result per rung");
    handle_at(true)(&mut tr)?;
    let (_, drained) = ladder::server_rung(shape, &epoch, &mut tr)?;
    let own = self_times(tr.spans());

    let (allowed, mover) = ladder::spec_rung(drained.machine(), 3);
    r.set("spec.allowed_ns_per_op", allowed);
    r.set("spec.mover_ns_per_query", mover);
    set_handle_metrics(&mut r, std::slice::from_ref(&handle), tr.spans(), &own);
    // The group rung's commit stage: the ready set through `commit_group`,
    // its ineligible members falling back one at a time. Compare
    // `core.handle.push_commit_ns_per_txn`.
    let total = |name| sum_named(tr.spans(), &own, name).total_ns as f64;
    r.set(
        "core.group.commit_group_ns_per_txn",
        per_txn(
            total("core.group.commit_group") + total("core.group.fallback_commit"),
            &group.run,
        ),
    );
    r.set("server.tick_ns_per_txn", per_txn(server.ns, &server.run));
    r.set(
        "server.self_ns_per_txn",
        per_txn(server.ns, &server.run) - per_txn(group.ns, &group.run),
    );
    r.set(
        "server.allocs_per_txn",
        server
            .run
            .counters
            .per_txn(server.run.counters.allocs.count),
    );
    let speedup = ratio(server.ns, wall_ns);
    r.set("harness.parallel_speedup", speedup);
    r.set("ladder.residual_share", 1.0 - speedup / kv::WORKERS as f64);
    let exact = handle.exact
        && group.exact
        && server.exact
        && handle_traced.exact
        && handle_traced.run.counters.repeatable() == handle.run.counters.repeatable();
    r.set("ladder.counts_repeat", f64::from(u8::from(exact)));
    r.set(
        "trace.overhead_share",
        ratio(handle_traced.ns - handle.ns, handle.ns),
    );
    r.set("trace.spans", tr.spans().len() as f64);
    for (name, rung) in [
        ("core.handle", &handle),
        ("core.group", &group),
        ("server", &server),
    ] {
        r.notes.push(exact_note(name, rung));
    }
    if tr.dropped() > 0 {
        r.notes
            .push(format!("{} spans did not fit the buffer", tr.dropped()));
    }
    r.spans = tr.into_spans();
    Ok(r)
}

fn per_layer_tm(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    r.notes.push(tm_input_hash(seed));
    tm::set_up(seed)?;
    let (pass, _) = tm::run_pass(
        seed,
        tm::WARMUP_EPOCHS,
        seconds * LAYER_E2E_SHARE,
        None,
        true,
    )?;
    r.attempted = pass.attempted;
    r.failed = pass.failed;
    let mut all = Counters::default();
    for d in &pass.drivers {
        all.merge(&d.counters);
    }
    set_counter_metrics(&mut r, &all);
    r.set("harness.oracle_ms", pass.oracle_ms);
    r.set("harness.probe_us", pass.probe_median_us());
    r.set("harness.txn_per_s_wall", median(&pass.txn_per_s));
    r.set("epoch_ms_p10", percentile_of(&pass.epoch_ms, 10.0));
    r.set("epoch_ms_p90", percentile_of(&pass.epoch_ms, 90.0));
    r.set(
        "fail_share",
        ratio(pass.failed as f64, pass.attempted as f64),
    );
    for (d, dp) in tm::DRIVERS.iter().zip(&pass.drivers) {
        let c = &dp.counters;
        r.set(
            &format!("tm.{d}.txn_per_s"),
            ratio(c.commits as f64 * 1e9, dp.wall_ns as f64),
        );
        r.set(&format!("tm.{d}.aborts_per_commit"), c.per_txn(c.aborts));
        r.set(
            &format!("tm.{d}.blocked_tick_share"),
            ratio(c.blocked_ticks as f64, c.ticks as f64),
        );
    }

    // The ladder, on the first timed epoch's input.
    let input = tm::epoch(seed, tm::WARMUP_EPOCHS);
    let mut tr = Tracer::on(1 << 16);
    tr.set_epoch(tm::WARMUP_EPOCHS as u32);
    let kv_queues = ladder::tm_queues(&input.kv);
    let mem_queues = ladder::tm_queues(&input.mem);
    let kv_handle = |tr: &mut Tracer| {
        ladder::handle_rung(KvMap::new(), ladder::TM_SHARDS, &kv_queues, 1, false, tr)
    };
    let mem_handle = |tr: &mut Tracer| {
        ladder::handle_rung(
            pushpull_spec::rwmem::RwMem::new(),
            ladder::TM_SHARDS,
            &mem_queues,
            1,
            false,
            tr,
        )
    };
    // The traced handle rungs take their turn among the untraced rungs
    // (see `per_layer_kv`).
    let [optimistic, boosting, tl2, kv_rung, mem_rung, handles_traced]: [Rung; 6] = ladder::repeat(
        seconds * LAYER_LADDER_SHARE,
        RUNG_MAX_ROUNDS,
        &mut [
            &mut |tr| ladder::tm_rung(&mut tm::optimistic(&input), "tm.optimistic.tick", tr),
            &mut |tr| ladder::tm_rung(&mut tm::boosting(&input), "tm.boosting.tick", tr),
            &mut |tr| ladder::tm_rung(&mut tm::tl2(&input), "tm.tl2.tick", tr),
            &mut { kv_handle },
            &mut { mem_handle },
            &mut |_| {
                tr.clear();
                let mut both = kv_handle(&mut tr)?;
                let mem = mem_handle(&mut tr)?;
                both.ns += mem.ns;
                both.counters.merge(&mem.counters);
                Ok(both)
            },
        ],
    )?
    .try_into()
    .expect("one result per rung");
    let drivers = [optimistic, boosting, tl2];
    // Optimistic and boosting run the same programs, so the key-value
    // handle rung stands under both.
    let handles = [kv_rung.clone(), kv_rung, mem_rung];

    let mut optimistic = tm::optimistic(&input);
    ladder::tm_rung(&mut optimistic, "tm.optimistic.tick", &mut tr)?;
    ladder::tm_rung(&mut tm::boosting(&input), "tm.boosting.tick", &mut tr)?;
    ladder::tm_rung(&mut tm::tl2(&input), "tm.tl2.tick", &mut tr)?;
    let own = self_times(tr.spans());

    use tm::Driver;
    let (allowed, mover) = ladder::spec_rung(optimistic.driver_machine(), 3);
    r.set("spec.allowed_ns_per_op", allowed);
    r.set("spec.mover_ns_per_query", mover);
    set_handle_metrics(&mut r, &handles[1..], tr.spans(), &own);
    let mut det_ns = 0.0;
    let mut det = Counters::default();
    for ((d, rung), handle) in tm::DRIVERS.iter().zip(&drivers).zip(&handles) {
        let tick = per_txn(rung.ns, &rung.run);
        r.set(&format!("tm.{d}.tick_ns_per_txn"), tick);
        r.set(
            &format!("tm.{d}.self_ns_per_txn"),
            tick - per_txn(handle.ns, &handle.run),
        );
        det_ns += rung.ns;
        det.merge(&rung.run.counters);
        r.notes.push(exact_note(&format!("tm.{d}"), rung));
    }
    // `run_parallel`'s threads are the product's, so the allocation
    // figures of this workload come from the deterministic rungs.
    r.set("alloc.count_per_txn", det.per_txn(det.allocs.count));
    r.set("alloc.bytes_per_txn", det.per_txn(det.allocs.bytes));
    let wall_ns = median(&pass.epoch_ms) * 1e6;
    let speedup = ratio(det_ns, wall_ns);
    r.set("harness.parallel_speedup", speedup);
    r.set("ladder.residual_share", 1.0 - speedup / tm::THREADS as f64);
    let exact = drivers.iter().chain(&handles).all(|rung| rung.exact) && handles_traced.exact;
    r.set("ladder.counts_repeat", f64::from(u8::from(exact)));
    r.set(
        "trace.overhead_share",
        ratio(
            handles_traced.ns - handles[1].ns - handles[2].ns,
            handles[1].ns + handles[2].ns,
        ),
    );
    r.set("trace.spans", tr.spans().len() as f64);
    r.notes.push(exact_note("core.handle (KvMap)", &handles[1]));
    r.notes.push(exact_note("core.handle (RwMem)", &handles[2]));
    r.spans = tr.into_spans();
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names between `"<key>": [` and the matching `]` of the
    /// checked-in BENCHMARK.json, with their units.
    fn declared(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, name: &str| {
            let at = obj.find(&format!("\"{name}\"")).expect("field present");
            let rest = &obj[at + name.len() + 2..];
            let open = rest.find('"').expect("string opens") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let json = include_str!("../../BENCHMARK.json");
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn registry_names_fit_the_contract() {
        let all = per_layer();
        assert!(all.len() <= 128);
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
    }

    #[test]
    fn a_short_per_layer_run_sets_only_registered_metrics() {
        for workload in ["kv_fresh_short", "tm_rw"] {
            let r = per_layer_run(workload, 4, 0.2).unwrap();
            let known = per_layer();
            for (name, value) in &r.metrics {
                assert!(known.iter().any(|(n, _)| n == name), "{name}");
                assert!(value.is_finite(), "{name} = {value}");
            }
            assert_eq!(
                r.get("ladder.counts_repeat"),
                1.0,
                "{workload}: {:?}",
                r.notes
            );
            assert_eq!(r.failed, 0);
            assert!(!r.spans.is_empty());
        }
    }
}
