//! Run-count goldens that hold *between commits*.
//!
//! `tests/golden/run_counts.txt` was written by the commit before PR 15
//! rebuilt the kernel's fire path (events carried in the wheel entry,
//! task-native wakes, in-place NIC re-arms). It has one line per (app,
//! point) — `app point runtime_ns events total_sends check` — for all ten
//! apps at 8 processors, test scale, over five points that between them
//! reach every delivery path of the AM layer. A kernel change that claims
//! "same events in the same `(time, seq)` order" has to reproduce every
//! line; the other goldens pin three apps' event windows, and the
//! benchmark's fingerprint only compares passes of one build.
//!
//! `tests/golden/host_work.txt` holds, for the same apps and points, what
//! each run costs the host rather than what it simulates: `app point
//! events polls allocations bytes_allocated peak_live_bytes`, the last
//! three from the counting allocator the footprint tests share. It was
//! written by `c40561c` with this test and `RunOutcome::polls` applied,
//! and repeats to the byte in the release and the test profile. Its last
//! two columns have since fallen by 8 B on every line, once: the cluster
//! state (`ClusterInner`, one allocation per run) no longer holds a `Sim`
//! handle, and no other column moved. They then moved once more, by a
//! constant per app: each processor's Split-C memory lost a 16 B
//! extension slot, and its task future grew when `AmPort::request` and
//! `post` came to share one send path (+1 920 B per run for Barnes,
//! +2 432 for EM3D and P-Ray, +3 200 for the rest, both columns).

#[path = "../crates/apps/tests/common/mod.rs"]
mod common;

use common::{heap_work, Counting};
use nowlab::am::LatencyMode;
use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::parallel_map;
use nowlab::{FaultPlan, Knobs, NetConfig, RunSpec, SweepableApp};
use nowlab_sim::SimDelta;

const GOLDEN: &str = include_str!("golden/run_counts.txt");
/// The four `bulk_compute` apps at the scale the benchmark runs them (16
/// processors, benchmark inputs), same line format, written by `40da148`,
/// the commit before Radb's distribution was rewritten.
const BULK_GOLDEN: &str = include_str!("golden/bulk_counts.txt");
const HOST_WORK: &str = include_str!("golden/host_work.txt");

#[global_allocator]
static ALLOC: Counting = Counting;

type Point = (&'static str, NetConfig);

fn points() -> Vec<Point> {
    let now = NetConfig::berkeley_now();
    let us = SimDelta::from_micros_int;
    vec![
        ("baseline", now),
        ("o+50us", now.with_knobs(Knobs::with_overhead(us(50)))),
        ("L+100us", now.with_knobs(Knobs::with_latency(us(100)))),
        (
            "drop0.02/seed7",
            now.with_faults(FaultPlan::with_drop_rate(0.02, 7)),
        ),
        (
            "slowrx/L+30us",
            now.with_knobs(Knobs::with_latency(us(30)))
                .with_latency_mode(LatencyMode::SlowRxPath),
        ),
    ]
}

/// Where bulk apps differ: per-message cost, per-byte cost, retransmitted
/// payloads.
fn bulk_points() -> Vec<Point> {
    let now = NetConfig::berkeley_now();
    let slow_bulk = Knobs::with_bulk_bandwidth(&now.machine, 5.0).expect("below the baseline's");
    vec![
        ("baseline", now),
        (
            "o+50us",
            now.with_knobs(Knobs::with_overhead(SimDelta::from_micros_int(50))),
        ),
        ("bulk5MB/s", now.with_knobs(slow_bulk)),
        (
            "drop0.02/seed7",
            now.with_faults(FaultPlan::with_drop_rate(0.02, 7)),
        ),
    ]
}

/// The CLI's `guard`: an event budget always, a 120 s virtual deadline on
/// a lossy wire.
fn spec_of(procs: usize, net: NetConfig) -> RunSpec {
    let spec = RunSpec::new(procs)
        .with_net(net)
        .with_event_limit(300_000_000);
    if net.faults.is_active() {
        spec.with_time_limit(SimDelta::from_micros_int(120_000_000))
    } else {
        spec
    }
}

fn render(apps: &[Box<dyn SweepableApp>], procs: usize, points: &[Point], jobs: usize) -> String {
    let grid: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|a| (0..points.len()).map(move |p| (a, p)))
        .collect();
    let lines = parallel_map(jobs, &grid, |_, &(a, p)| {
        let (point, net) = points[p];
        let out = apps[a].run(&spec_of(procs, net));
        assert!(
            out.completed,
            "{} at {point} did not complete",
            apps[a].name()
        );
        format!(
            "{} {point} {} {} {} {:#018x}\n",
            apps[a].name(),
            out.runtime.as_nanos(),
            out.events,
            out.stats.total_sends(),
            out.check
        )
    });
    lines.concat()
}

#[test]
fn every_app_reproduces_the_parent_counts_at_every_job_count() {
    let apps = suite_scaled(SuiteScale::Test);
    for jobs in [1, 2] {
        let got = render(&apps, 8, &points(), jobs);
        assert!(
            got == GOLDEN,
            "run counts differ from tests/golden/run_counts.txt at --jobs {jobs}; got:\n{got}"
        );
    }
}

#[test]
fn the_bulk_apps_reproduce_the_parent_counts_at_benchmark_scale() {
    let mut apps = suite_scaled(SuiteScale::Benchmark);
    apps.retain(|a| ["Radb", "NOW-sort", "P-Ray", "Connect"].contains(&a.name()));
    let got = render(&apps, 16, &bulk_points(), 2);
    assert!(
        got == BULK_GOLDEN,
        "run counts differ from tests/golden/bulk_counts.txt on the pool; got:\n{got}"
    );
    // Radb again without the pool: the app this golden was written to
    // hold still, with no second run sharing the process.
    apps.retain(|a| a.name() == "Radb");
    let got = render(&apps, 16, &bulk_points(), 1);
    let want: String = BULK_GOLDEN
        .lines()
        .filter(|l| l.starts_with("Radb "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        got == want,
        "Radb's sequential counts differ from tests/golden/bulk_counts.txt; got:\n{got}"
    );
}

/// Each run on the test's own thread, so the per-thread counters see it
/// and nothing else.
#[test]
fn every_app_does_the_parent_host_work_at_every_point() {
    let mut got = String::new();
    for app in suite_scaled(SuiteScale::Test) {
        for (point, net) in points() {
            let (out, work) = heap_work(|| app.run(&spec_of(8, net)));
            assert!(out.completed, "{} at {point} did not complete", app.name());
            got += &format!(
                "{} {point} {} {} {} {} {}\n",
                app.name(),
                out.events,
                out.polls,
                work.allocs,
                work.bytes,
                work.peak
            );
        }
    }
    assert!(
        got == HOST_WORK,
        "host work differs from tests/golden/host_work.txt; got:\n{got}"
    );
}
