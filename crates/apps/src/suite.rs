//! The assembled benchmark suite (paper Table 3's program list).

use nowlab_core::SweepableApp;

use crate::barnes::{Barnes, BarnesParams};
use crate::connect::{Connect, ConnectParams};
use crate::em3d::{Em3dParams, Em3dRead, Em3dWrite};
use crate::murphi::{Murphi, MurphiParams};
use crate::nowsort::{NowSort, NowSortParams};
use crate::pray::{Pray, PrayParams};
use crate::radb::Radb;
use crate::radix::{Radix, RadixParams};
use crate::sample::{Sample, SampleParams};

/// Input-size presets for the whole suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteScale {
    /// Tiny inputs for CI tests (seconds of wall time for a full sweep).
    Test,
    /// The default benchmark inputs (DESIGN.md §4's scaled sizes).
    Benchmark,
}

/// The ten applications at the chosen scale, in the paper's Table 3 order.
pub fn suite_scaled(scale: SuiteScale) -> Vec<Box<dyn SweepableApp>> {
    match scale {
        SuiteScale::Benchmark => vec![
            Box::new(Radix::new(RadixParams::benchmark())),
            Box::new(Em3dWrite::new(Em3dParams::benchmark())),
            Box::new(Em3dRead::new(Em3dParams::benchmark())),
            Box::new(Sample::new(SampleParams::benchmark())),
            Box::new(Barnes::new(BarnesParams::benchmark())),
            Box::new(Pray::new(PrayParams::benchmark())),
            Box::new(Murphi::new(MurphiParams::benchmark())),
            Box::new(Connect::new(ConnectParams::benchmark())),
            Box::new(NowSort::new(NowSortParams::benchmark())),
            // Radb keeps the paper's "same keys as Radix" structure but at 8x
            // the key count: its histogram costs the same whatever the key
            // count, so a larger local share restores the paper's
            // compute/comm ratio (DESIGN.md §6).
            Box::new(Radb::new(RadixParams::benchmark().scaled(8.0))),
        ],
        SuiteScale::Test => vec![
            Box::new(Radix::new(RadixParams::small())),
            Box::new(Em3dWrite::new(Em3dParams::small())),
            Box::new(Em3dRead::new(Em3dParams::small())),
            Box::new(Sample::new(SampleParams::small())),
            Box::new(Barnes::new(BarnesParams::small())),
            Box::new(Pray::new(PrayParams::small())),
            Box::new(Murphi::new(MurphiParams::small())),
            Box::new(Connect::new(ConnectParams::small())),
            Box::new(NowSort::new(NowSortParams::small())),
            Box::new(Radb::new(RadixParams::small())),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_core::RunSpec;

    #[test]
    fn suite_has_ten_distinct_programs() {
        let suite = suite_scaled(SuiteScale::Test);
        assert_eq!(suite.len(), 10);
        let mut names: Vec<&str> = suite.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate program names");
    }

    #[test]
    fn every_program_completes_at_baseline_on_4_procs() {
        for app in suite_scaled(SuiteScale::Test) {
            let out = app.run(&RunSpec::new(4));
            assert!(out.completed, "{} did not complete", app.name());
            assert!(
                out.stats.total_sends() > 0,
                "{} sent no messages",
                app.name()
            );
        }
    }
}
