//! # nowlab-core — the ISCA'97 sensitivity apparatus
//!
//! This crate is the reproduction's heart: the methodology of Martin,
//! Vahdat, Culler & Anderson, *"Effects of Communication Latency, Overhead,
//! and Bandwidth in a Cluster Architecture"* (ISCA 1997), as a library.
//!
//! * [`calib`] — the §3.3 microbenchmarks: LogP signatures (Figure 3),
//!   parameter calibration (Table 2), bulk-bandwidth calibration.
//! * [`models`] — the §5 analytic predictors (`r + 2mΔo`, burst/uniform gap
//!   models, read-latency model) and least-squares linearity checks.
//! * [`mod@sweep`] — the sensitivity-sweep driver behind Figures 5–8: run an
//!   application while one LogGP knob is dialed from the NOW baseline to
//!   LAN-like values.
//! * [`report`] — paper-style table and CSV rendering.
//!
//! Machine presets ([`nowlab_am::LoggpParams::berkeley_now`],
//! [`nowlab_am::LoggpParams::intel_paragon`],
//! [`nowlab_am::LoggpParams::meiko_cs2`]) live in `nowlab-am` and are
//! re-exported here.
//!
//! # Examples
//!
//! Calibrating the baseline apparatus recovers Table 1:
//!
//! ```
//! use nowlab_core::calib::calibrate;
//! use nowlab_core::NetConfig;
//!
//! let c = calibrate(NetConfig::berkeley_now());
//! assert!((c.o_mean_us() - 2.9).abs() < 0.1);
//! assert!((c.gap_us - 5.8).abs() < 0.1);
//! assert!((c.latency_us - 5.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod models;
pub mod predict;
pub mod report;
pub mod sweep;

pub use models::SensitivityModel;
pub use nowlab_am::{
    CommStats, FaultPlan, Knobs, LoggpParams, NetConfig, NodeFault, NodeFaultPlan, Outage, RunAbort,
};
pub use nowlab_metrics::json;
pub use nowlab_metrics::{
    render_report, write_sweep_json, MetricsMode, MetricsRecorder, MetricsReport, MetricsSummary,
    RunMeta, SweepPointMeta, DEFAULT_WINDOW,
};
pub use nowlab_sim::{SimDelta, SimTime};
pub use nowlab_splitc::{
    allgather_us, alltoall_us, bcast_us, reduce_us, A2aAlgo, BcastAlgo, CollAlgo, CollConfig,
    GatherAlgo, ReduceAlgo, Selector,
};
pub use nowlab_trace::{TraceMode, TraceReport, TraceSummary};
pub use predict::{predict_app, render_report_auto, AxisPrediction, PredictPoint, Prediction};
pub use sweep::par::{default_jobs, parallel_map};
pub use sweep::{
    run_grid, sweep_jobs, sweep_many, Axis, AxisSweep, RunOutcome, RunSpec, SweepError, SweepPoint,
    SweepableApp,
};
