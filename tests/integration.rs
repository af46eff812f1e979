//! Cross-crate integration tests: the full stack (kernel → network →
//! Split-C → applications → sweep driver) exercised through the public
//! facade.

use nowlab::apps::em3d::{Em3dParams, Em3dRead, Em3dWrite};
use nowlab::apps::nowsort::{NowSort, NowSortParams};
use nowlab::apps::radix::{Radix, RadixParams};
use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::calib::calibrate;
use nowlab::{sweep_jobs, Axis, NetConfig, RunSpec, SweepableApp};

#[test]
fn whole_suite_completes_and_is_deterministic() {
    for app in suite_scaled(SuiteScale::Test) {
        let spec = RunSpec::new(4).with_seed(11);
        let a = app.run(&spec);
        let b = app.run(&spec);
        assert!(a.completed, "{} failed", app.name());
        assert_eq!(a.check, b.check, "{}: check not reproducible", app.name());
        assert_eq!(
            a.runtime,
            b.runtime,
            "{}: virtual time not reproducible",
            app.name()
        );
        assert_eq!(
            a.stats.total_sends(),
            b.stats.total_sends(),
            "{}: message count not reproducible",
            app.name()
        );
    }
}

#[test]
fn checks_are_invariant_across_every_knob() {
    // The correctness checksum must not depend on network performance —
    // the central sanity property of the whole apparatus.
    for app in suite_scaled(SuiteScale::Test) {
        let base = app.run(&RunSpec::new(4));
        for axis in [
            Axis::Overhead,
            Axis::Gap,
            Axis::Latency,
            Axis::BulkBandwidth,
        ] {
            let values = axis.paper_values();
            let mid = values[values.len() / 2];
            let knobs = axis
                .knobs_for(&NetConfig::berkeley_now().machine, mid)
                .unwrap();
            let slowed = app.run(
                &RunSpec::new(4)
                    .with_net(NetConfig::berkeley_now().with_knobs(knobs))
                    .with_event_limit(100_000_000),
            );
            assert!(slowed.completed, "{} at {axis}={mid}", app.name());
            assert_eq!(
                base.check,
                slowed.check,
                "{}: result changed under {axis}={mid}",
                app.name()
            );
        }
    }
}

#[test]
fn overhead_hurts_chatty_apps_more_than_quiet_ones() {
    let radix = Radix::new(RadixParams::small());
    let nowsort = NowSort::new(NowSortParams::small());
    let spec = RunSpec::new(8);
    let o_values = [2.9, 23.0, 53.0];
    let r = sweep_jobs(&radix, &spec, Axis::Overhead, &o_values, 1).expect("baseline completes");
    let n = sweep_jobs(&nowsort, &spec, Axis::Overhead, &o_values, 1).expect("baseline completes");
    assert!(
        r.max_slowdown() > 3.0 * n.max_slowdown(),
        "radix {} vs nowsort {}",
        r.max_slowdown(),
        n.max_slowdown()
    );
}

#[test]
fn latency_hurts_readers_more_than_writers() {
    let params = Em3dParams::small();
    let spec = RunSpec::new(8);
    let l_values = [5.0, 55.0, 105.0];
    let r = sweep_jobs(&Em3dRead::new(params), &spec, Axis::Latency, &l_values, 1)
        .expect("baseline completes");
    let w = sweep_jobs(&Em3dWrite::new(params), &spec, Axis::Latency, &l_values, 1)
        .expect("baseline completes");
    assert!(
        r.max_slowdown() > 2.0 * w.max_slowdown(),
        "read {} vs write {}",
        r.max_slowdown(),
        w.max_slowdown()
    );
}

#[test]
fn overhead_and_gap_responses_are_linear() {
    // §5.5: the headline linearity claim, at reduced scale.
    let radix = Radix::new(RadixParams::small());
    let spec = RunSpec::new(8);
    for axis in [Axis::Overhead, Axis::Gap] {
        let s =
            sweep_jobs(&radix, &spec, axis, &axis.paper_values(), 1).expect("baseline completes");
        let fit = s.linearity().expect("enough points");
        assert!(
            fit.r2 > 0.98,
            "radix response to {axis} should be linear, r2={}",
            fit.r2
        );
    }
}

#[test]
fn calibration_matches_table_1_through_the_facade() {
    let c = calibrate(NetConfig::berkeley_now());
    assert!((c.o_mean_us() - 2.9).abs() < 0.1);
    assert!((c.gap_us - 5.8).abs() < 0.1);
    assert!((c.latency_us - 5.0).abs() < 0.1);
}

#[test]
fn seeds_change_workloads_but_not_structure() {
    let app = Radix::new(RadixParams::small());
    let a = app.run(&RunSpec::new(4).with_seed(1));
    let b = app.run(&RunSpec::new(4).with_seed(2));
    assert!(a.completed && b.completed);
    // Different keys => different checksum, same message volume shape.
    assert_ne!(a.check, b.check);
    let ratio = a.stats.total_sends() as f64 / b.stats.total_sends() as f64;
    assert!((ratio - 1.0).abs() < 0.05, "send volume should be stable");
}

#[test]
fn suite_handles_awkward_processor_counts() {
    // Odd and non-power-of-two P exercise block partitioning, barrier
    // rounds, and owner hashing in every application.
    for procs in [3usize, 5, 7] {
        for app in suite_scaled(SuiteScale::Test) {
            let out = app.run(&RunSpec::new(procs));
            assert!(out.completed, "{} failed on {procs} procs", app.name());
        }
    }
}

#[test]
fn two_processor_degenerate_case() {
    for app in suite_scaled(SuiteScale::Test) {
        let out = app.run(&RunSpec::new(2));
        assert!(out.completed, "{} failed on 2 procs", app.name());
    }
}
