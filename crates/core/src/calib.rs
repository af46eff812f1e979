//! Calibration microbenchmarks (paper §3.3, Figure 3, Table 2).
//!
//! The paper verifies its apparatus with Active Message microbenchmarks:
//! issue a burst of `m` messages with a fixed computational delay `Δ`
//! between them, and plot the average initiation interval against `m` for
//! each `Δ` (the *LogP signature*). From the signature one reads
//!
//! * `o_send` — the interval of a very short burst,
//! * `g` — the steady-state interval at `Δ = 0`,
//! * `o_recv` — steady-state interval minus `Δ` minus `o_send` for large
//!   `Δ` (processor-bound regime),
//! * `L` — half the round-trip time minus the two overheads.
//!
//! We run the same microbenchmarks against the simulated apparatus. This is
//! not circular: the calibration *measures* the emergent behavior of the
//! NIC/flow-control machinery (e.g. the effective `g` rises at large `L`
//! because the constant window cannot fill the pipe — Table 2's artifact),
//! which the configured parameters alone do not state.

use std::cell::Cell;
use std::rc::Rc;

use nowlab_am::{AmCluster, AmPort, HandlerId, Mark, NetConfig, Payload, ReplyData};
use nowlab_sim::{Sim, SimDelta};

/// One point of a LogP signature: average initiation interval for a burst.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SigPoint {
    /// Messages in the burst.
    pub burst: usize,
    /// Computational delay between messages, in µs.
    pub delta_us: f64,
    /// Average initiation interval seen by the sender, in µs.
    pub interval_us: f64,
}

/// A LogP signature: intervals for a grid of burst sizes and deltas
/// (Figure 3).
#[derive(Clone, Debug, Default)]
pub struct Signature {
    /// Measured points, in row-major (delta, burst) order.
    pub points: Vec<SigPoint>,
}

/// Measures the average initiation interval of a burst of `m` short
/// messages with `delta` of compute between them, on a 2-processor cluster.
///
/// The clock stops when the last message is *issued* (paper §3.3),
/// regardless of in-flight requests or replies.
pub fn burst_interval_us(net: NetConfig, m: usize, delta: SimDelta) -> f64 {
    burst_total(net, m, delta).as_micros_f64() / m as f64
}

/// Total virtual time to issue a burst of `m` messages (see
/// [`burst_interval_us`]).
pub fn burst_total(net: NetConfig, m: usize, delta: SimDelta) -> SimDelta {
    assert!(m > 0, "burst must contain at least one message");
    client_server(net, async move |port, h| {
        for i in 0..m {
            if i > 0 && !delta.is_zero() {
                port.compute(delta).await;
            }
            port.post(1, h, [i as u64, 0, 0, 0], Payload::None, Mark::Write)
                .await;
        }
    })
}

/// Runs `client` on processor 0 of a fresh two-processor cluster whose
/// processor 1 serves an acknowledging handler (`client`'s second
/// argument), and returns how long `client` took.
///
/// The clock stops when `client` returns, but processor 0 goes on
/// servicing the network: under a faulty wire the unacknowledged tail of
/// its requests keeps retransmitting until their replies are processed,
/// and only then does the simulation idle out.
fn client_server(
    net: NetConfig,
    client: impl AsyncFnOnce(&AmPort, HandlerId) + 'static,
) -> SimDelta {
    let cluster = AmCluster::new(Sim::new(), net, 2);
    let sim = cluster.sim();
    let h = cluster.register_handler(|_| ReplyData::ack());
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    let measured = Rc::new(Cell::new(None));
    let out = Rc::clone(&measured);
    sim.spawn(async move {
        let t0 = port.now();
        client(&port, h).await;
        out.set(Some(port.now().since(t0)));
        port.wait_until(|| false).await;
    });
    sim.run();
    sim.drop_unfinished_tasks();
    measured.get().expect("calibration client did not complete")
}

/// Asymptotic (steady-state) initiation interval for a given `Δ`, in µs.
///
/// Differences two long bursts so the pipelined start-up transient cancels
/// exactly — the equivalent of reading the flat tail of the Figure 3
/// signature.
pub fn steady_interval_us(net: NetConfig, delta: SimDelta) -> f64 {
    const M1: usize = 256;
    const M2: usize = 512;
    let t1 = burst_total(net, M1, delta);
    let t2 = burst_total(net, M2, delta);
    (t2 - t1).as_micros_f64() / (M2 - M1) as f64
}

/// Produces the Figure 3 LogP signature over the given grids.
pub fn signature(net: NetConfig, bursts: &[usize], deltas_us: &[f64]) -> Signature {
    let mut points = Vec::with_capacity(bursts.len() * deltas_us.len());
    for &d in deltas_us {
        for &m in bursts {
            points.push(SigPoint {
                burst: m,
                delta_us: d,
                interval_us: burst_interval_us(net, m, SimDelta::from_micros(d)),
            });
        }
    }
    Signature { points }
}

/// Measures a single short-message round-trip time, in µs.
pub fn round_trip_us(net: NetConfig) -> f64 {
    client_server(net, async |port, h| {
        port.request(1, h, [0; 4], Payload::None, Mark::Read).await;
    })
    .as_micros_f64()
}

/// The LogGP characteristics recovered by the microbenchmarks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Measured send overhead, µs.
    pub o_send_us: f64,
    /// Measured receive overhead, µs.
    pub o_recv_us: f64,
    /// Measured gap (steady-state interval at `Δ=0`), µs.
    pub gap_us: f64,
    /// Measured latency (`RTT/2 − o_send − o_recv`), µs.
    pub latency_us: f64,
}

impl Calibration {
    /// The reported `o`: mean of send and receive overheads.
    pub fn o_mean_us(&self) -> f64 {
        (self.o_send_us + self.o_recv_us) / 2.0
    }
}

/// Runs the full §3.3 calibration on a configuration.
pub fn calibrate(net: NetConfig) -> Calibration {
    let o_send_us = burst_interval_us(net, 1, SimDelta::ZERO);
    let gap_us = steady_interval_us(net, SimDelta::ZERO);
    // Processor-bound regime: Δ far above every other bottleneck.
    let big_delta_us = 2.0 * gap_us + 20.0;
    let proc_bound_us = steady_interval_us(net, SimDelta::from_micros(big_delta_us));
    let o_recv_us = proc_bound_us - big_delta_us - o_send_us;
    let rtt_us = round_trip_us(net);
    let latency_us = rtt_us / 2.0 - o_send_us - o_recv_us;
    Calibration {
        o_send_us,
        o_recv_us,
        gap_us,
        latency_us,
    }
}

/// Measures sustained bulk bandwidth (MB/s) by streaming `m` bulk messages
/// of `bytes` each and dividing by the steady-state interval (§3.3's `G`
/// calibration).
pub fn bulk_bandwidth_mb_per_s(net: NetConfig, bytes: u32, m: usize) -> f64 {
    assert!(m > 1 && bytes > 0);
    let total = client_server(net, async move |port, h| {
        for _ in 0..m {
            port.post(1, h, [0; 4], Payload::Synthetic(bytes), Mark::Bulk)
                .await;
        }
        port.quiesce().await;
    });
    (bytes as f64 * m as f64) / 1e6 / total.as_secs_f64()
}

/// Finds the saturated bulk bandwidth: grows the message size until the
/// bandwidth stops improving (the paper saw saturation at 2KB).
pub fn calibrate_bulk(net: NetConfig) -> f64 {
    let mut best = 0.0f64;
    let mut size = 256u32;
    while size <= 16 * 1024 {
        let bw = bulk_bandwidth_mb_per_s(net, size, 32);
        if bw > best {
            best = bw;
        } else if bw < best * 0.99 {
            break;
        }
        size *= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowlab_am::Knobs;

    #[test]
    fn baseline_calibration_recovers_table1() {
        let c = calibrate(NetConfig::berkeley_now());
        assert!((c.o_send_us - 1.8).abs() < 0.05, "o_send={}", c.o_send_us);
        assert!((c.o_recv_us - 4.0).abs() < 0.05, "o_recv={}", c.o_recv_us);
        assert!((c.o_mean_us() - 2.9).abs() < 0.05);
        assert!((c.gap_us - 5.8).abs() < 0.1, "g={}", c.gap_us);
        assert!((c.latency_us - 5.0).abs() < 0.1, "L={}", c.latency_us);
    }

    #[test]
    fn added_overhead_shows_up_in_o_and_g_but_not_l() {
        let net =
            NetConfig::berkeley_now().with_knobs(Knobs::with_overhead(SimDelta::from_micros(50.0)));
        let c = calibrate(net);
        assert!((c.o_mean_us() - 52.9).abs() < 0.2, "o={}", c.o_mean_us());
        // Effective gap becomes o_send' + o_recv' = 205.8-100=105.8... for
        // Δo=50: 51.8+54.0 = 105.8.
        assert!((c.gap_us - 105.8).abs() < 0.5, "g={}", c.gap_us);
        assert!((c.latency_us - 5.0).abs() < 0.2, "L={}", c.latency_us);
    }

    #[test]
    fn added_gap_leaves_o_and_l_alone() {
        let net =
            NetConfig::berkeley_now().with_knobs(Knobs::with_gap(SimDelta::from_micros(49.2)));
        let c = calibrate(net); // desired g = 55
        assert!((c.gap_us - 55.0).abs() < 0.5, "g={}", c.gap_us);
        assert!((c.o_mean_us() - 2.9).abs() < 0.1, "o={}", c.o_mean_us());
        assert!((c.latency_us - 5.0).abs() < 0.2, "L={}", c.latency_us);
    }

    #[test]
    fn large_latency_raises_effective_gap_table2_artifact() {
        let net =
            NetConfig::berkeley_now().with_knobs(Knobs::with_latency(SimDelta::from_micros(100.0)));
        let c = calibrate(net);
        assert!((c.latency_us - 105.0).abs() < 0.5, "L={}", c.latency_us);
        assert!((c.o_mean_us() - 2.9).abs() < 0.1);
        // Constant window of 8: effective g ≈ RTT/8 = (2·105 + 11.6)/8 ≈ 27.6,
        // matching the paper's observed 27.7 for desired L = 105.
        assert!(
            (c.gap_us - 27.7).abs() < 1.0,
            "effective gap {} should rise to ~27.7",
            c.gap_us
        );
    }

    #[test]
    fn bulk_calibration_near_38_mb_per_s() {
        let bw = calibrate_bulk(NetConfig::berkeley_now());
        assert!((bw - 38.0).abs() < 2.5, "bulk bandwidth {bw}");
    }

    #[test]
    fn reduced_bulk_bandwidth_is_observed() {
        let base = NetConfig::berkeley_now();
        let knobs = Knobs::with_bulk_bandwidth(&base.machine, 10.0).unwrap();
        let bw = calibrate_bulk(base.with_knobs(knobs));
        assert!((bw - 10.0).abs() < 1.0, "bulk bandwidth {bw}");
    }

    #[test]
    fn signature_is_monotone_in_burst_size_toward_steady_state() {
        let sig = signature(
            NetConfig::berkeley_now(),
            &[1, 2, 4, 8, 16, 64, 256],
            &[0.0, 10.0],
        );
        // At Δ=0 the interval grows from o_send toward g.
        let d0: Vec<f64> = sig
            .points
            .iter()
            .filter(|p| p.delta_us == 0.0)
            .map(|p| p.interval_us)
            .collect();
        assert!(d0.first().unwrap() < d0.last().unwrap());
        assert!((d0[0] - 1.8).abs() < 0.05);
        // Signature averages include the start-up transient, so allow a
        // wider band than the differenced estimator.
        // The steady state is the largest burst's interval.
        let steady_at = |delta: f64| {
            let p = sig.points.iter().filter(|p| p.delta_us == delta);
            p.max_by_key(|p| p.burst).unwrap().interval_us
        };
        let steady = steady_at(0.0);
        assert!((steady - 5.8).abs() < 0.2, "steady={steady}");
        // At Δ=10 the steady state is o_send + o_recv + Δ = 15.8.
        let steady10 = steady_at(10.0);
        assert!((steady10 - 15.8).abs() < 0.3, "steady10={steady10}");
    }

    #[test]
    fn round_trip_is_2l_plus_4o() {
        let rtt = round_trip_us(NetConfig::berkeley_now());
        assert!((rtt - 21.6).abs() < 0.05, "rtt={rtt}");
    }
}
