//! Determinism regression test: the property `clippy.toml` and the
//! source rules exist to protect. Running the same application with
//! the same seed twice must produce bit-identical outcomes — virtual
//! runtime, checksum, completion, and every per-processor communication
//! counter.

use nowlab::apps::pray::{Pray, PrayParams};
use nowlab::{RunSpec, SweepableApp};

#[test]
fn same_seed_twice_is_bit_identical() {
    let spec = RunSpec::new(4).with_seed(7);
    let a = Pray::new(PrayParams::small()).run(&spec);
    let b = Pray::new(PrayParams::small()).run(&spec);
    assert!(a.completed && b.completed);
    assert_eq!(a.check, b.check, "checksums diverged");
    assert_eq!(a.runtime, b.runtime, "virtual runtimes diverged");
    assert_eq!(a.stats, b.stats, "communication counters diverged");
}

#[test]
fn different_seeds_actually_change_the_run() {
    // Guards against the vacuous version of the test above (a run that
    // ignores its seed would trivially be "deterministic").
    let a = Pray::new(PrayParams::small()).run(&RunSpec::new(4).with_seed(7));
    let b = Pray::new(PrayParams::small()).run(&RunSpec::new(4).with_seed(8));
    assert_ne!(a.check, b.check, "seed does not reach the workload");
}
