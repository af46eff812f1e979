//! Layer probes: the per-layer host-time ledger of the traced run.
//!
//! Each layer is measured from outside, through its public API only:
//! small programs that call one layer's entry points in a loop, timed as
//! spans, and substitution (the same run with an observer off and on, the
//! same grid through `sweep_many` and called directly). Nothing here
//! edits or instruments the crates themselves.
//!
//! Every probe checks an exact count (events, messages, outputs) before
//! its timing is accepted, so a probe that silently did less work cannot
//! report a speed-up.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use nowlab_am::{
    AmCluster, CommStats, FaultPlan, Mark, NetConfig, Payload, ReplyData, GAM_FRAG_BYTES,
};
use nowlab_apps::{suite_scaled, SuiteScale};
use nowlab_coll::harness::{install, measure, OpSpec, RawColl};
use nowlab_coll::{ops, CollAccess, CollConfig, Selector};
use nowlab_core::calib::calibrate;
use nowlab_core::{
    allgather_us, alltoall_us, bcast_us, parallel_map, reduce_us, sweep_many, Axis, MetricsMode,
    RunMeta, RunOutcome, SweepableApp, TraceMode,
};
use nowlab_predict::analyze;
use nowlab_sim::{RunReport, Sim, SimDelta, SimTime, StopReason};
use nowlab_splitc::{run_spmd, Ctx, GlobalPtr, SpmdConfig};

use crate::host::rss_mb;
use crate::spans::{Scope, Tracer};
use crate::workloads::{export_all, Exports, Settings, PROCS};
use crate::yardstick::Gauge;

/// The ten suite apps as they appear in metric names, in Table 3 order
/// (the order `suite_scaled` returns them in).
const APP_SLUGS: [&str; 10] = [
    "radix",
    "em3d_write",
    "em3d_read",
    "sample",
    "barnes",
    "pray",
    "murphi",
    "connect",
    "nowsort",
    "radb",
];

/// Collects the probes' metrics and times their calls as `probe` spans.
pub struct Ledger<'a> {
    tracer: &'a Tracer,
    smoke: bool,
    values: BTreeMap<String, f64>,
}

type Probe = Result<(), String>;

impl<'a> Ledger<'a> {
    pub fn new(tracer: &'a Tracer, smoke: bool) -> Self {
        Ledger {
            tracer,
            smoke,
            values: BTreeMap::new(),
        }
    }

    /// Runs `f` as a top-level `probe` span of `layer`; returns its result
    /// and host nanoseconds. `f` receives the scope its own stages hang
    /// from.
    fn time_in<R>(
        &self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(Scope<'a>) -> R,
    ) -> (R, f64) {
        let tracer = self.tracer;
        let t0 = Instant::now();
        let out = tracer.root("probe", layer, name, |id| f(Some((tracer, id))));
        (out, t0.elapsed().as_nanos() as f64)
    }

    fn time<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.time_in(layer, name, |_| f())
    }

    /// [`Ledger::time`], returning the nanoseconds at yardstick speed as
    /// well (raw, scaled). The scaled ones are for the legs of a ratio: the
    /// host changes speed within seconds, and a ratio of two raw timings
    /// would mostly measure that.
    fn gauged<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let mut gauge = Gauge::new();
        let (out, raw_ns) = gauge.time(|| self.time(layer, name, f));
        (out, raw_ns, gauge.scaled_s * 1e9)
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// `full` at benchmark size, `small` under `--smoke`.
    fn size(&self, full: u64, small: u64) -> u64 {
        if self.smoke {
            small
        } else {
            full
        }
    }

    pub fn into_values(self) -> BTreeMap<String, f64> {
        self.values
    }
}

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Probe {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Runs every probe. The full-trace runs go first, while the heap is
/// still small enough for an RSS delta to mean what it says.
pub fn run_all(ledger: &mut Ledger<'_>, settings: Settings) -> Probe {
    let predicted = observers(ledger, settings)?;
    resimulate(ledger, settings, &predicted)?;
    sim(ledger)?;
    am(ledger)?;
    coll(ledger)?;
    splitc(ledger)?;
    let baseline = apps(ledger, settings)?;
    core(ledger, settings, &baseline)
}

// ---------------------------------------------------------------------
// sim: the five engine_throughput kernels through the `Sim` API
// ---------------------------------------------------------------------

fn timer_churn(tasks: u64, rounds: u64) -> RunReport {
    let sim = Sim::with_capacity(tasks as usize);
    for i in 0..tasks {
        let s = sim.clone();
        sim.spawn(async move {
            for r in 0..rounds {
                s.delay(SimDelta::from_nanos((i * 7 + r * 13) % 97 + 1))
                    .await;
            }
        });
    }
    sim.run()
}

fn callback_storm(chains: u64, rounds: u64) -> RunReport {
    fn step(sim: &Sim, chain: u64, remaining: u64) {
        if remaining == 0 {
            return;
        }
        sim.schedule_in(SimDelta::from_nanos(chain % 13 + 1), move |sim| {
            step(sim, chain, remaining - 1)
        });
    }
    let sim = Sim::new();
    for c in 0..chains {
        step(&sim, c, rounds);
    }
    sim.run()
}

fn hook_dispatch(chains: u64, rounds: u64) -> RunReport {
    let sim = Sim::new();
    // Token = (chain << 32) | remaining: the hook re-arms itself with no
    // allocation per event.
    let hook_cell = Rc::new(Cell::new(None));
    let hc = Rc::clone(&hook_cell);
    let hook = sim.register_hook(move |sim, token| {
        let (chain, remaining) = (token >> 32, token & u64::from(u32::MAX));
        if remaining > 1 {
            let at = sim.now() + SimDelta::from_nanos(chain % 13 + 1);
            let hook = hc.get().expect("hook id is set before the first event");
            sim.schedule_hook(at, hook, (chain << 32) | (remaining - 1));
        }
    });
    hook_cell.set(Some(hook));
    for c in 0..chains {
        sim.schedule_hook(SimTime::from_nanos(c % 13 + 1), hook, (c << 32) | rounds);
    }
    sim.run()
}

fn same_instant(width: u64, instants: u64) -> RunReport {
    let sim = Sim::new();
    for t in 0..instants {
        for _ in 0..width {
            sim.schedule(SimTime::from_nanos((t + 1) * 50), |_| {});
        }
    }
    sim.run()
}

fn far_timers(tasks: u64, rounds: u64) -> RunReport {
    let sim = Sim::with_capacity(tasks as usize);
    for i in 0..tasks {
        let s = sim.clone();
        sim.spawn(async move {
            for r in 0..rounds {
                // ≥1 ms: beyond the wheel horizon, so every push lands in
                // the overflow heap and is promoted later.
                let ns = 1_000_000 + (i * 977 + r * 131) % 50_000;
                s.delay(SimDelta::from_nanos(ns)).await;
            }
        });
    }
    sim.run()
}

fn sim(ledger: &mut Ledger<'_>) -> Probe {
    type Kernel = fn(u64, u64) -> RunReport;
    // (metric, kernel, width, rounds at full size, rounds under smoke,
    // whether every round also polls a task)
    let kernels: [(&str, Kernel, u64, u64, u64, bool); 5] = [
        ("task", timer_churn, 64, 20_000, 500, true),
        ("callback", callback_storm, 16, 75_000, 1_000, false),
        ("hook", hook_dispatch, 16, 75_000, 1_000, false),
        ("tie", same_instant, 128, 10_000, 200, false),
        ("far", far_timers, 32, 37_500, 250, true),
    ];
    let (mut events, mut polls) = (0u64, 0u64);
    for (name, kernel, width, full, small, tasks) in kernels {
        let rounds = ledger.size(full, small);
        let (report, ns) = ledger.time("sim", name, || kernel(width, rounds));
        // Event and poll counts are exact functions of the shape.
        let want_events = width * rounds;
        let want_polls = if tasks { width * (rounds + 1) } else { 0 };
        ensure(
            report.stop_reason == StopReason::Idle
                && report.unfinished_tasks == 0
                && report.events_fired == want_events
                && report.polls == want_polls,
            || format!("sim.{name}: kernel accounting drifted: {report:?}"),
        )?;
        ledger.set(&format!("sim.{name}_ns_per_event"), ns / want_events as f64);
        events += report.events_fired;
        polls += report.polls;
    }
    ledger.set("sim.probe_events", events as f64);
    ledger.set("sim.probe_polls", polls as f64);
    Ok(())
}

// ---------------------------------------------------------------------
// am: AmCluster + AmPort with no Split-C on top
// ---------------------------------------------------------------------

/// How an [`am_ring`] processor talks to its right-hand neighbour.
#[derive(Clone, Copy)]
enum Traffic {
    /// Pipelined `post`s of short messages.
    Oneway,
    /// Blocking `request`s of short messages.
    RoundTrip,
    /// Pipelined `post`s carrying this many payload words each.
    Bulk(usize),
}

/// Every processor sends `msgs` messages to its right-hand neighbour and
/// serves its left-hand one. Returns the kernel report, the cluster's
/// counters and how many processors saw all their sends acknowledged.
fn am_ring(
    net: NetConfig,
    procs: usize,
    msgs: u64,
    traffic: Traffic,
) -> (RunReport, CommStats, usize) {
    let sim = Sim::with_capacity(procs);
    let cluster = AmCluster::new(sim.clone(), net, procs);
    let h = cluster.register_handler(|_| ReplyData::ack());
    let done = Rc::new(Cell::new(0usize));
    for me in 0..procs {
        let port = cluster.port(me);
        let done = Rc::clone(&done);
        sim.spawn(async move {
            let dst = (me + 1) % procs;
            for i in 0..msgs {
                let args = [i, 0, 0, 0];
                match traffic {
                    Traffic::Oneway => port.post(dst, h, args, Payload::None, Mark::Write).await,
                    Traffic::RoundTrip => {
                        port.request(dst, h, args, Payload::None, Mark::Read).await;
                    }
                    Traffic::Bulk(words) => {
                        let payload = Payload::from_words(vec![i; words]);
                        port.post(dst, h, args, payload, Mark::Bulk).await;
                    }
                }
            }
            port.quiesce().await;
            done.set(done.get() + 1);
            // Keep serving the neighbour until the simulation idles out.
            port.wait_until(|| false).await;
        });
    }
    let report = sim.run();
    (report, cluster.stats(), done.get())
}

fn am(ledger: &mut Ledger<'_>) -> Probe {
    let net = NetConfig::berkeley_now();
    let checked = |what: &str, procs: usize, msgs: u64, run: &(RunReport, CommStats, usize)| {
        let (report, stats, done) = run;
        // Lossless: every message is sent once and acknowledged once.
        ensure(
            *done == procs
                && report.stop_reason == StopReason::Idle
                && stats.total_sends() == 2 * procs as u64 * msgs,
            || format!("am.{what}: ring did not complete cleanly: {report:?}"),
        )
    };

    let msgs = ledger.size(20_000, 200);
    let (run, ns) = ledger.time("am", "oneway x16", || {
        am_ring(net, PROCS, msgs, Traffic::Oneway)
    });
    checked("oneway", PROCS, msgs, &run)?;
    let sent = (PROCS as u64 * msgs) as f64;
    ledger.set("am.oneway_ns_per_msg", ns / sent);
    ledger.set("am.events_per_msg", run.0.events_fired as f64 / sent);

    let msgs = ledger.size(100_000, 500);
    let (run, ns) = ledger.time("am", "rtt x2", || am_ring(net, 2, msgs, Traffic::RoundTrip));
    checked("rtt", 2, msgs, &run)?;
    ledger.set("am.rtt_ns_per_msg", ns / (2 * msgs) as f64);

    // One full GAM fragment per message.
    let words = GAM_FRAG_BYTES as usize / 8;
    let msgs = ledger.size(20_000, 100);
    let (run, ns) = ledger.time("am", "bulk x2", || {
        am_ring(net, 2, msgs, Traffic::Bulk(words))
    });
    checked("bulk", 2, msgs, &run)?;
    let kib = (2 * msgs) as f64 * f64::from(GAM_FRAG_BYTES) / 1024.0;
    ledger.set("am.bulk_ns_per_kib", ns / kib);

    let lossy = net.with_faults(FaultPlan::with_drop_rate(0.01, 7));
    let msgs = ledger.size(50_000, 500);
    let (run, ns) = ledger.time("am", "lossy x2", || {
        am_ring(lossy, 2, msgs, Traffic::Oneway)
    });
    ensure(run.2 == 2 && run.0.stop_reason == StopReason::Idle, || {
        format!("am.lossy: ring did not complete: {:?}", run.0)
    })?;
    ledger.set("am.lossy_ns_per_msg", ns / (2 * msgs) as f64);
    ledger.set("am.lossy_retransmits", run.1.total_retransmits() as f64);

    let builds = ledger.size(200, 5);
    let (procs, ns) = ledger.time("am", "AmCluster::new x16", || {
        (0..builds)
            .map(|_| AmCluster::new(Sim::new(), net, PROCS).num_procs())
            .sum::<usize>()
    });
    ensure(procs == PROCS * builds as usize, || {
        "am.cluster_new: wrong size".to_string()
    })?;
    ledger.set("am.cluster_new_us", ns / builds as f64 / 1e3);
    Ok(())
}

// ---------------------------------------------------------------------
// coll: the four families at 16 procs, 16 KiB, selector-chosen variant
// ---------------------------------------------------------------------

/// Payload of the collective probes: 16 KiB in 64-bit words.
const COLL_WORDS: usize = 2048;

/// Runs `op` `reps` times back to back on one fresh cluster; returns the
/// kernel report and how many processors finished all repetitions.
fn coll_loop(op: OpSpec, reps: u64) -> (RunReport, usize) {
    let sim = Sim::with_capacity(PROCS);
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), PROCS);
    let handlers = install(&cluster);
    let done = Rc::new(Cell::new(0usize));
    for me in 0..PROCS {
        let access = RawColl::new(&cluster, handlers, me);
        let cluster = cluster.clone();
        let done = Rc::clone(&done);
        sim.spawn(async move {
            let words = vec![me as u64; COLL_WORDS];
            let blocks = match op {
                OpSpec::AllToAll(_, n) => vec![vec![me as u64; n]; PROCS],
                _ => Vec::new(),
            };
            for _ in 0..reps {
                match op {
                    OpSpec::Broadcast(algo, n) => {
                        let src: &[u64] = if me == 0 { &words[..n] } else { &[] };
                        ops::broadcast(&access, algo, 0, src).await;
                    }
                    OpSpec::Reduce(algo) => {
                        ops::allreduce_sum(&access, algo, me as u64).await;
                    }
                    OpSpec::Allgather(algo, n) => {
                        ops::allgather(&access, algo, &words[..n]).await;
                    }
                    OpSpec::AllToAll(algo, _) => {
                        ops::alltoall(&access, algo, &blocks).await;
                    }
                }
            }
            // Same exit protocol as `harness::measure`: drain own acks,
            // then serve the stragglers until everyone is through.
            let port = access.port();
            port.quiesce().await;
            done.set(done.get() + 1);
            if done.get() == PROCS {
                cluster.poke_all();
            }
            port.wait_until(|| done.get() == PROCS).await;
        });
    }
    (sim.run(), done.get())
}

fn coll(ledger: &mut Ledger<'_>) -> Probe {
    let net = NetConfig::berkeley_now();
    let selector = Selector::new(net, PROCS, CollConfig::default());
    let bytes = COLL_WORDS as u64 * 8;
    // Allgather and all-to-all move COLL_WORDS in total per processor.
    let per_peer = COLL_WORDS / PROCS;
    let peer_bytes = per_peer as u64 * 8;
    let bcast = selector.broadcast(bytes);
    let reduce = selector.reduce();
    let gather = selector.allgather(peer_bytes);
    let a2a = selector.alltoall(peer_bytes);
    let families = [
        (
            "bcast",
            OpSpec::Broadcast(bcast, COLL_WORDS),
            bcast_us(&net, bcast, PROCS, bytes),
        ),
        (
            "reduce",
            OpSpec::Reduce(reduce),
            reduce_us(&net, reduce, PROCS),
        ),
        (
            "allgather",
            OpSpec::Allgather(gather, per_peer),
            allgather_us(&net, gather, PROCS, peer_bytes),
        ),
        (
            "alltoall",
            OpSpec::AllToAll(a2a, per_peer),
            alltoall_us(&net, a2a, PROCS, peer_bytes),
        ),
    ];
    let reps = ledger.size(100, 3);
    let (mut events, mut err_max) = (0u64, 0.0f64);
    for (name, op, predicted_us) in families {
        let ((report, done), ns) = ledger.time("coll", name, || coll_loop(op, reps));
        ensure(
            done == PROCS && report.stop_reason == StopReason::Idle,
            || format!("coll.{name}: loop did not complete: {report:?}"),
        )?;
        ledger.set(&format!("coll.{name}_ns_per_op"), ns / reps as f64);
        events += report.events_fired;

        let (single, _) = ledger.time("coll", &format!("measure {name}"), || {
            measure(op, PROCS, net)
        });
        ensure(single.checks.windows(2).all(|w| w[0] == w[1]), || {
            format!("coll.{name}: processors disagree on the result")
        })?;
        let measured_us = single.elapsed.as_micros_f64();
        err_max = err_max.max((predicted_us - measured_us).abs() / measured_us);
    }
    ledger.set("coll.events_per_op", events as f64 / (4 * reps) as f64);
    ledger.set("coll.model_err_max", err_max);
    Ok(())
}

// ---------------------------------------------------------------------
// splitc: run_spmd bodies looping one Ctx primitive
// ---------------------------------------------------------------------

/// Words in a bulk probe transfer: one 4 KiB GAM fragment.
const BULK_WORDS: usize = GAM_FRAG_BYTES as usize / 8;

/// The primitive a [`splitc_loop`] body repeats against its right-hand
/// neighbour.
#[derive(Clone, Copy, PartialEq)]
enum Prim {
    Write,
    Read,
    BulkPut,
    BulkGet,
    Barrier,
    Lock,
    Mail,
    /// Empty body: construction, exit protocol and teardown only.
    Nothing,
}

async fn prim_body(ctx: Ctx, prim: Prim, n: u64) -> u64 {
    let region = ctx.alloc_region(BULK_WORDS);
    let mailbox = ctx.alloc_mailbox();
    if prim == Prim::Nothing {
        return 0;
    }
    ctx.barrier().await;
    let right = (ctx.me() + 1) % ctx.procs();
    let at = |i: u64| GlobalPtr::new(right, region, i as usize % BULK_WORDS);
    let mut acc = 0u64;
    for i in 0..n {
        match prim {
            Prim::Write => ctx.write(at(i), i).await,
            Prim::Read => acc += ctx.read(at(i)).await,
            Prim::BulkPut => ctx.bulk_put(at(0), vec![i; BULK_WORDS]).await,
            Prim::BulkGet => acc += ctx.bulk_get(at(0), BULK_WORDS).await.len() as u64,
            Prim::Barrier => ctx.barrier().await,
            Prim::Lock => {
                // Each lock word has one contender, so every acquisition
                // is a single compare-and-swap round trip.
                acc += ctx.lock(at(0)).await;
                ctx.unlock(at(0)).await;
            }
            Prim::Mail => {
                let payload = Payload::from_words(vec![i; 8]);
                ctx.send_mail(right, mailbox, [i, 0, 0], payload).await;
                while ctx.try_recv_mail(mailbox).is_some() {
                    acc += 1;
                }
            }
            Prim::Nothing => {}
        }
    }
    ctx.sync().await;
    ctx.barrier().await;
    while ctx.try_recv_mail(mailbox).is_some() {
        acc += 1;
    }
    acc
}

/// Runs `prim` `n` times on every processor; returns the summed outputs.
fn splitc_loop(prim: Prim, n: u64) -> Result<u64, String> {
    let outcome = run_spmd(&SpmdConfig::new(PROCS), move |ctx| prim_body(ctx, prim, n));
    if !outcome.completed {
        return Err(format!("SPMD body did not complete: {:?}", outcome.report));
    }
    Ok(outcome.outputs.into_iter().flatten().sum())
}

fn splitc(ledger: &mut Ledger<'_>) -> Probe {
    let p = PROCS as u64;
    let kib_per_bulk = f64::from(GAM_FRAG_BYTES) / 1024.0;
    // (metric, primitive, repetitions, smoke repetitions, work units per
    // repetition per processor, expected summed output)
    type Expect = fn(u64, u64) -> Option<u64>;
    let none: Expect = |_, _| None;
    let probes: [(&str, Prim, u64, u64, f64, Expect); 7] = [
        ("write_ns_per_op", Prim::Write, 10_000, 100, 1.0, none),
        ("read_ns_per_op", Prim::Read, 5_000, 100, 1.0, none),
        (
            "bulk_put_ns_per_kib",
            Prim::BulkPut,
            2_000,
            20,
            kib_per_bulk,
            none,
        ),
        (
            "bulk_get_ns_per_kib",
            Prim::BulkGet,
            2_000,
            20,
            kib_per_bulk,
            |p, n| Some(p * n * BULK_WORDS as u64),
        ),
        // One barrier episode involves every processor once.
        (
            "barrier_ns_per_op",
            Prim::Barrier,
            2_000,
            20,
            1.0 / PROCS as f64,
            none,
        ),
        ("lock_ns_per_op", Prim::Lock, 2_000, 20, 1.0, |p, n| {
            Some(p * n)
        }),
        ("mail_ns_per_msg", Prim::Mail, 5_000, 50, 1.0, |p, n| {
            Some(p * n)
        }),
    ];
    for (metric, prim, full, small, units, expect) in probes {
        let n = ledger.size(full, small);
        let (sum, ns) = ledger.time("splitc", metric, || splitc_loop(prim, n));
        let sum = sum.map_err(|e| format!("splitc.{metric}: {e}"))?;
        if let Some(want) = expect(p, n) {
            ensure(sum == want, || {
                format!("splitc.{metric}: outputs sum to {sum}, expected {want}")
            })?;
        }
        ledger.set(&format!("splitc.{metric}"), ns / (p * n) as f64 / units);
    }
    let builds = ledger.size(100, 3);
    let (result, ns) = ledger.time("splitc", "spmd_new_us", || {
        (0..builds).try_for_each(|_| splitc_loop(Prim::Nothing, 0).map(drop))
    });
    result.map_err(|e| format!("splitc.spmd_new_us: {e}"))?;
    ledger.set("splitc.spmd_new_us", ns / builds as f64 / 1e3);
    Ok(())
}

// ---------------------------------------------------------------------
// apps: one baseline run each, and what the am probes explain of it
// ---------------------------------------------------------------------

/// The share of an app run's host time that its message traffic, priced
/// at the `am.*` probe rates, does not explain (README: `above_am_frac`).
fn above_am_frac(values: &BTreeMap<String, f64>, stats: &CommStats, wall_ns: f64) -> f64 {
    let sum = |f: fn(&nowlab_am::ProcCounters) -> u64| stats.per_proc.iter().map(f).sum::<u64>();
    let read_trips = sum(|c| c.sends_read) / 2;
    let bulk_msgs = sum(|c| c.sends_bulk);
    let short_posts = (stats.total_sends() / 2).saturating_sub(read_trips + bulk_msgs);
    let bulk_kib = sum(|c| c.bytes_bulk) as f64 / 1024.0;
    let explained = short_posts as f64 * values["am.oneway_ns_per_msg"]
        + read_trips as f64 * values["am.rtt_ns_per_msg"]
        + bulk_kib * values["am.bulk_ns_per_kib"];
    1.0 - explained / wall_ns
}

fn apps(ledger: &mut Ledger<'_>, settings: Settings) -> Result<Vec<RunOutcome>, String> {
    let spec = settings.spec();
    let mut outcomes = Vec::new();
    for (app, slug) in suite_scaled(settings.scale).iter().zip(APP_SLUGS) {
        let (out, ns) = ledger.time("apps", app.name(), || app.run(&spec));
        ensure(out.completed, || {
            format!("apps.{slug}: baseline run did not complete")
        })?;
        let above = above_am_frac(&ledger.values, &out.stats, ns);
        ledger.set(&format!("apps.{slug}.wall_ms"), ns / 1e6);
        ledger.set(&format!("apps.{slug}.events"), out.events as f64);
        ledger.set(&format!("apps.{slug}.ns_per_event"), ns / out.events as f64);
        ledger.set(&format!("apps.{slug}.above_am_frac"), above);
        outcomes.push(out);
    }
    Ok(outcomes)
}

// ---------------------------------------------------------------------
// core: the sweep driver's own cost, the worker pool, calibration
// ---------------------------------------------------------------------

fn write_apps(scale: SuiteScale) -> Vec<Box<dyn SweepableApp>> {
    let mut suite = suite_scaled(scale);
    suite.truncate(2); // Radix, EM3D(write): Table 3 order
    suite
}

fn core(ledger: &mut Ledger<'_>, settings: Settings, baseline: &[RunOutcome]) -> Probe {
    let spec = settings.spec();

    // The same four points through the driver and called directly.
    let apps = write_apps(settings.scale);
    let values = [2.9, 13.0];
    let (swept, _, sweep_ns) = ledger.gauged("core", "sweep_many x4", || {
        sweep_many(&apps, &spec, Axis::Overhead, &values, 1)
    });
    let (direct, _, direct_ns) = ledger.gauged("core", "direct x4", || {
        let mut runtimes = Vec::new();
        for app in &apps {
            for &v in &values {
                let knobs = Axis::Overhead
                    .knobs_for(&spec.net.machine, v)
                    .expect("grid values are at or above the baseline");
                let out = app.run(&spec.with_net(spec.net.with_knobs(knobs)));
                runtimes.push(out.runtime);
            }
        }
        runtimes
    });
    let swept: Vec<SimDelta> = swept
        .iter()
        .flatten()
        .flat_map(|s| s.points.iter().map(|p| p.runtime))
        .collect();
    ensure(swept == direct, || {
        "core.sweep_self: the driver and direct calls disagree".to_string()
    })?;
    ledger.set("core.sweep_self_frac", sweep_ns / direct_ns - 1.0);

    // The ten baseline runs again, on the two-worker pool. The serial
    // leg is the `apps` probe's ten runs.
    let serial_ns: f64 = APP_SLUGS
        .iter()
        .map(|slug| ledger.values[&format!("apps.{slug}.wall_ms")] * 1e6)
        .sum();
    let suite = suite_scaled(settings.scale);
    let workers = 2;
    let (timed, par_ns) = ledger.time("core", "parallel_map x10", || {
        parallel_map(workers, &suite, |_, app| {
            let t0 = Instant::now();
            let out = app.run(&spec);
            (out, t0.elapsed().as_nanos() as f64)
        })
    });
    let busy_ns: f64 = timed.iter().map(|(_, ns)| ns).sum();
    ensure(timed.iter().map(|(out, _)| out).eq(baseline.iter()), || {
        "core.par: pooled runs differ from the serial ones".to_string()
    })?;
    ledger.set("core.par_speedup", serial_ns / par_ns);
    ledger.set(
        "core.par_idle_frac",
        1.0 - busy_ns / (workers as f64 * par_ns),
    );

    let (c, ns) = ledger.time("core", "calibrate", || calibrate(NetConfig::berkeley_now()));
    ensure((c.gap_us - 5.8).abs() < 0.1, || {
        format!("core.calibrate: gap {} us is not the NOW's", c.gap_us)
    })?;
    ledger.set("core.calibrate_ms", ns / 1e6);
    Ok(())
}

// ---------------------------------------------------------------------
// trace + metrics + predict: the observer matrix on Radix + EM3D(write)
// ---------------------------------------------------------------------

const PREDICT_AXES: [Axis; 2] = [Axis::Overhead, Axis::Latency];

/// What the predictor said of Radix and EM3D(write), and what it cost.
struct Predicted {
    /// Slowdowns, `[app][axis][paper grid value]`.
    curves: Vec<Vec<Vec<f64>>>,
    /// Host nanoseconds: traced runs, DAG builds, re-pricing, breakdowns.
    host_ns: f64,
}

/// Host time and size of the predictor's stages, summed over the apps.
#[derive(Default)]
struct PredictCost {
    trace_ns: f64,
    dag_ns: f64,
    reprice_ns: f64,
    breakdown_ns: f64,
    nodes: u64,
    edges: u64,
    points: u64,
}

/// Analyzes one full-trace run as `predict_app` would: DAG build,
/// re-pricing along both axes, breakdown. Returns the app's predicted
/// curves and the DAG's VmRSS growth in MiB.
fn predict_stages(
    ledger: &Ledger<'_>,
    app: &str,
    traced: &RunOutcome,
    spec: &nowlab_core::RunSpec,
    cost: &mut PredictCost,
) -> Result<(Vec<Vec<f64>>, f64), String> {
    let report = traced
        .trace
        .as_ref()
        .ok_or_else(|| format!("predict: traced {app} run kept no trace"))?;
    let before = rss_mb()?;
    let (analysis, ns) = ledger.time("predict", "analyze", || {
        analyze(report, &spec.net, spec.procs, traced.runtime)
    });
    let analysis = analysis.map_err(|e| format!("predict: {app}: {e}"))?;
    let dag_mb = rss_mb()? - before;
    cost.dag_ns += ns;
    cost.nodes += analysis.node_count() as u64;
    cost.edges += analysis.edge_count() as u64;
    let base_ns = traced.runtime.as_nanos() as f64;
    let mut curves = Vec::new();
    for axis in PREDICT_AXES {
        let grid: Vec<NetConfig> = axis
            .paper_values()
            .into_iter()
            .filter_map(|v| axis.knobs_for(&spec.net.machine, v))
            .map(|knobs| spec.net.with_knobs(knobs))
            .collect();
        let (runtimes, ns) = ledger.time("predict", "predict_runtime", || {
            grid.iter()
                .map(|cfg| analysis.predict_runtime(cfg))
                .collect::<Vec<_>>()
        });
        cost.reprice_ns += ns;
        cost.points += grid.len() as u64;
        curves.push(
            runtimes
                .iter()
                .map(|r| r.as_nanos() as f64 / base_ns)
                .collect(),
        );
    }
    let (breakdown, ns) = ledger.time("predict", "breakdown", || analysis.breakdown(&spec.net));
    ensure(breakdown.total == traced.runtime, || {
        "predict: breakdown does not telescope to the runtime".to_string()
    })?;
    cost.breakdown_ns += ns;
    Ok((curves, dag_mb))
}

/// Radix and EM3D(write) with each observer off and on. The full-trace
/// run of each app also feeds the Chrome exporter and the predictor, as
/// `nowlab predict --trace` does with its one traced run.
fn observers(ledger: &mut Ledger<'_>, settings: Settings) -> Result<Predicted, String> {
    let apps = write_apps(settings.scale);
    let base = settings.spec();
    let cells = [
        ("full", TraceMode::Full, MetricsMode::Off),
        ("off", TraceMode::Off, MetricsMode::Off),
        ("summary", TraceMode::Summary, MetricsMode::Off),
        ("metrics", TraceMode::Off, MetricsMode::On),
    ];
    // Yardstick-speed nanoseconds per cell, and what each run computed.
    let mut wall: BTreeMap<&str, f64> = BTreeMap::new();
    let mut seen: BTreeMap<&str, Vec<(u64, u64, u64)>> = BTreeMap::new();
    let mut exports = Exports::default();
    let mut cost = PredictCost::default();
    let mut curves = Vec::new();
    // VmRSS growth per record and per node, from the first (Radix) run:
    // later ones allocate into memory the earlier ones freed.
    let (mut bytes_per_msg, mut bytes_per_node) = (None, None);
    for (cell, trace, metrics) in cells {
        let spec = base.with_trace(trace).with_metrics(metrics);
        let layer = if cell == "metrics" {
            "metrics"
        } else {
            "trace"
        };
        for app in &apps {
            let before = rss_mb()?;
            let label = format!("{cell} {}", app.name());
            let (out, raw_ns, scaled_ns) = ledger.gauged(layer, &label, || app.run(&spec));
            ensure(out.completed, || {
                format!("{layer}: the {label} run did not complete")
            })?;
            *wall.entry(cell).or_default() += scaled_ns;
            seen.entry(cell)
                .or_default()
                .push((out.runtime.as_nanos(), out.events, out.check));

            let meta = RunMeta {
                app: app.name(),
                procs: spec.procs,
                seed: spec.seed,
            };
            let (e, _) = ledger.time_in(layer, &format!("exports {label}"), |scope| {
                export_all(&out, &meta, scope)
            });
            ensure(e.ok, || format!("{layer}: an export of {label} failed"))?;
            exports.drawn += e.drawn;
            exports.chrome_bytes += e.chrome_bytes;
            exports.chrome_ns += e.chrome_ns;
            exports.write_ns += e.write_ns;
            exports.parse_ns += e.parse_ns;
            exports.render_ns += e.render_ns;

            if let (TraceMode::Full, Some(report)) = (trace, &out.trace) {
                let records = report.records.len();
                ensure(records > 0 && e.drawn > 0, || {
                    format!("trace: the {label} run kept no records")
                })?;
                let store_mb = rss_mb()? - before;
                bytes_per_msg.get_or_insert(store_mb * 1024.0 * 1024.0 / records as f64);
                cost.trace_ns += raw_ns;
                let (app_curves, dag_mb) =
                    predict_stages(ledger, app.name(), &out, &spec, &mut cost)?;
                bytes_per_node.get_or_insert(dag_mb * 1024.0 * 1024.0 / cost.nodes as f64);
                curves.push(app_curves);
            }
        }
    }
    // An observer must leave the run it watches untouched.
    ensure(seen.values().all(|s| s == &seen["off"]), || {
        "trace/metrics: an observer changed a run's outcome".to_string()
    })?;
    let over = |cell: &str| wall[cell] / wall["off"] - 1.0;
    ledger.set("trace.summary_overhead_frac", over("summary"));
    ledger.set("trace.full_overhead_frac", over("full"));
    ledger.set(
        "trace.full_bytes_per_msg",
        bytes_per_msg.ok_or("trace: no full-trace run")?,
    );
    ledger.set(
        "trace.chrome_ns_per_msg",
        exports.chrome_ns / exports.drawn as f64,
    );
    ledger.set(
        "trace.chrome_bytes_per_msg",
        exports.chrome_bytes as f64 / exports.drawn as f64,
    );
    ledger.set("metrics.on_overhead_frac", over("metrics"));
    ledger.set("metrics.write_ms", exports.write_ns / 1e6);
    ledger.set("metrics.parse_ms", exports.parse_ns / 1e6);
    ledger.set("metrics.render_ms", exports.render_ns / 1e6);

    ledger.set("predict.trace_run_ms", cost.trace_ns / 1e6);
    ledger.set("predict.dag_build_ms", cost.dag_ns / 1e6);
    ledger.set(
        "predict.reprice_ms_per_point",
        cost.reprice_ns / 1e6 / cost.points as f64,
    );
    ledger.set("predict.breakdown_ms", cost.breakdown_ns / 1e6);
    ledger.set("predict.nodes", cost.nodes as f64);
    ledger.set("predict.edges", cost.edges as f64);
    ledger.set(
        "predict.bytes_per_node",
        bytes_per_node.ok_or("predict: no full-trace run")?,
    );
    Ok(Predicted {
        curves,
        host_ns: cost.trace_ns + cost.dag_ns + cost.reprice_ns + cost.breakdown_ns,
    })
}

/// The predictor's alternative: simulate the same 34 points.
fn resimulate(ledger: &mut Ledger<'_>, settings: Settings, predicted: &Predicted) -> Probe {
    let apps = write_apps(settings.scale);
    let spec = settings.spec();
    let mut resim_ns = 0.0;
    let mut err_max = 0.0f64;
    for (a, axis) in PREDICT_AXES.into_iter().enumerate() {
        let (sweeps, ns) = ledger.time("core", &format!("resim {}", axis.label()), || {
            sweep_many(&apps, &spec, axis, &axis.paper_values(), 1)
        });
        resim_ns += ns;
        for (i, sweep) in sweeps.into_iter().enumerate() {
            let sweep = sweep.map_err(|e| format!("predict: re-simulation failed: {e}"))?;
            let curve = &predicted.curves[i][a];
            ensure(sweep.points.len() == curve.len(), || {
                "predict: grids differ".to_string()
            })?;
            for (p, predicted) in sweep.points.iter().zip(curve) {
                err_max = err_max.max((predicted - p.slowdown).abs() / p.slowdown);
            }
        }
    }
    ledger.set("predict.resim_ratio", resim_ns / predicted.host_ns);
    ledger.set("predict.curve_err_max", err_max);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;

    /// ISSUE 11's ledger and `BENCHMARK.json` name the same metrics: the
    /// probes report every per-layer metric the file lists (the two
    /// `harness.*` ones come from the traced passes) and nothing else.
    #[test]
    fn probes_report_exactly_the_per_layer_metrics_of_benchmark_json() {
        let tracer = Tracer::new();
        let mut ledger = Ledger::new(&tracer, true);
        let settings = Settings {
            scale: SuiteScale::Test,
            seed: 1,
        };
        run_all(&mut ledger, settings).expect("every probe passes its checks at test scale");
        let measured: Vec<String> = ledger.into_values().into_keys().collect();
        let mut listed: Vec<String> = Contract::load()
            .expect("BENCHMARK.json loads")
            .per_layer
            .into_iter()
            .map(|m| m.name)
            .filter(|name| !name.starts_with("harness."))
            .collect();
        listed.sort();
        assert_eq!(measured, listed);
    }
}
