//! Communication-balance matrices: the ASCII analog of the paper's
//! Figure 4 greyscale plots. Each character cell (i, j) shades the number
//! of messages processor i sent to processor j.
//!
//! Run with: `cargo run --release --example traffic_matrix`

use nowlab::am::render_balance_matrix;
use nowlab::apps::nowsort::{NowSort, NowSortParams};
use nowlab::apps::radix::{Radix, RadixParams};
use nowlab::apps::sample::{Sample, SampleParams};
use nowlab::core::{RunSpec, SweepableApp};

fn main() {
    let apps: Vec<Box<dyn SweepableApp>> = vec![
        Box::new(Radix::new(RadixParams::small().scaled(2.0))),
        Box::new(Sample::new(SampleParams::small().scaled(2.0))),
        Box::new(NowSort::new(NowSortParams::small())),
    ];
    for app in apps {
        let out = app.run(&RunSpec::new(16));
        assert!(out.completed);
        println!(
            "--- {} (16 processors; max cell = {} messages, balance = {:.2}) ---",
            app.name(),
            out.stats.matrix_max(),
            out.stats.balance()
        );
        println!("{}", render_balance_matrix(&out.stats));
        match app.name() {
            "Radix" => println!("note the uniform all-to-all wash of the key writes\n"),
            "Sample" => println!("note the vertical bars: receivers are unevenly loaded\n"),
            _ => println!("note the uniform black square: perfectly balanced streaming\n"),
        }
    }
}
