//! Fixture: failure-detector state reached from outside `crates/am`
//! (AMP004): one tuning field and the heartbeat jitter. Other layers
//! observe membership only through the port accessors and tune the
//! detector only through `NodeFaultPlan::with_detector`.
//! scripts/check_moved_lints.sh builds it against `crates/am`.
use nowlab_am::NodeFaultPlan;

pub fn beat(plan: &NodeFaultPlan) -> u64 {
    plan.hb_period.as_nanos() + plan.hb_jitter(1, 0).as_nanos()
}
