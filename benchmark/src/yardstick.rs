//! The host-speed yardstick: why and how end-to-end times are scaled.
//!
//! The reference box's two cores change speed by 20–50 % within a second
//! and stay slow for tens of seconds at a time. CPU time moves with wall
//! time and the kernel reports no steal, so it is the host's other tenants,
//! not this process. A median over a run's passes cannot remove a slow
//! phase that covers the whole run: ten unchanged runs of one workload
//! spread 10–20 % between their quartiles, wider than any bound worth
//! guarding.
//!
//! So the harness measures the host beside the program. [`Gauge::time`]
//! runs a fixed kernel (~20 ms of binary-heap churn and table updates, no
//! repo code) immediately before and after each timed segment, and scales
//! the segment's seconds to the speed at which that kernel takes
//! [`NOMINAL_S`]:
//!
//! ```text
//! scaled_s = raw_s × NOMINAL_S ÷ mean(kernel seconds before, after)
//! ```
//!
//! A slow phase stretches the segment and the kernel alike and cancels; a
//! change to the simulator moves only the segment. `NOMINAL_S` is what the
//! kernel takes on the reference box in its usual state, so scaled and raw
//! seconds read about the same there. Both are printed; `BENCHMARK.json`'s
//! `setup_s`, `wall_s` and `events_per_s` are the scaled ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per sample.
const ROUNDS: u64 = 400_000;
/// Seconds one sample is defined to take: the scale of every scaled time.
pub const NOMINAL_S: f64 = 0.020;

/// Timer-queue-like work: keeps a 512-entry heap of pseudo-random keys
/// churning and folds each popped key into a 256 KiB table.
fn kernel(rounds: u64) -> u64 {
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut table = vec![0u64; 1 << 15];
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x >> 20, i)));
        if heap.len() > 512 {
            let Reverse((key, seq)) = heap.pop().expect("the heap holds 513 entries");
            let slot = (key ^ seq) as usize & mask;
            table[slot] = table[slot].wrapping_add(key);
            acc ^= table[slot];
        }
    }
    acc
}

/// Seconds the kernel takes right now.
fn sample() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(black_box(ROUNDS)));
    t0.elapsed().as_secs_f64()
}

/// Times back-to-back segments and sums their raw and scaled seconds.
#[derive(Debug, Default)]
pub struct Gauge {
    /// Kernel seconds sampled after the latest segment; the next segment
    /// starts where that one ended, so it is also its "before".
    last: Option<f64>,
    pub raw_s: f64,
    pub scaled_s: f64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Runs `f` as one segment.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.last.take().unwrap_or_else(sample);
        let t0 = Instant::now();
        let out = f();
        let raw_s = t0.elapsed().as_secs_f64();
        let after = sample();
        self.last = Some(after);
        self.raw_s += raw_s;
        self.scaled_s += scale(raw_s, before, after);
        out
    }
}

/// `raw_s` at yardstick speed, given the kernel seconds sampled around it.
fn scale(raw_s: f64, before: f64, after: f64) -> f64 {
    raw_s * NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_nominal_speed_leaves_seconds_unscaled() {
        assert_eq!(scale(3.0, NOMINAL_S, NOMINAL_S), 3.0);
    }

    #[test]
    fn a_host_at_half_speed_halves_the_scaled_seconds() {
        assert_eq!(scale(3.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 1.5);
        // A phase change inside the segment: the two samples are averaged.
        assert_eq!(scale(3.0, NOMINAL_S, 3.0 * NOMINAL_S), 1.5);
    }

    #[test]
    fn the_kernel_is_deterministic_and_its_work_grows_with_rounds() {
        assert_eq!(kernel(10_000), kernel(10_000));
        assert_ne!(kernel(10_000), kernel(20_000));
    }

    #[test]
    fn a_gauge_sums_its_segments() {
        let mut g = Gauge::new();
        assert_eq!(g.time(|| 7), 7);
        g.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(g.raw_s >= 0.002 && g.scaled_s > 0.0);
    }
}
