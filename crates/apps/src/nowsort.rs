//! NOW-sort — disk-to-disk parallel sort (paper §4.1, Table 3 row 9).
//!
//! The 1997 MinuteSort record holder: each node streams records off one
//! disk, scatters them to their key-range owners with **one-way bulk
//! Active Messages at the rate the disk delivers**, while the second disk
//! absorbs incoming records; a second, purely local pass sorts each
//! partition. The CPU is idle-polling during disk transfers, so
//! communication overhead overlaps I/O — the paper's explanation for
//! NOW-sort's overhead tolerance, and its bulk-bandwidth knee sits exactly
//! at the single-disk rate (5.5 MB/s, Figure 8).
//!
//! Records are synthetic (100 B of wire time each); the per-destination
//! record counts are drawn deterministically, so conservation is checked
//! exactly.

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};
use nowlab_rng::Rng;
use nowlab_splitc::Payload;
use nowlab_splitc::{SimDelta, SimTime};

use crate::common::{end_measured_region, execute, proc_rng, start_measured_region, DegradePolicy};

/// Per-record CPU cost of the partitioning/merge logic.
const C_RECORD: SimDelta = SimDelta::from_nanos(150);

/// A streaming disk: tracks when sequential transfers complete.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Disk {
    /// Bandwidth in MB/s.
    pub mb_per_s: f64,
    free_at: SimTime,
}

impl Disk {
    /// A disk idle from time zero.
    pub(crate) fn new(mb_per_s: f64) -> Self {
        Disk {
            mb_per_s,
            free_at: SimTime::ZERO,
        }
    }

    /// Queues a sequential transfer of `bytes` starting no earlier than
    /// `now`; returns its completion time.
    pub(crate) fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.free_at.max(now);
        let dur = SimDelta::from_secs(bytes as f64 / (self.mb_per_s * 1e6));
        self.free_at = start + dur;
        self.free_at
    }
}

/// Parameters of NOW-sort.
#[derive(Clone, Copy, Debug)]
pub struct NowSortParams {
    /// Total records.
    pub records: usize,
    /// Bytes per record (the paper's 100-byte MinuteSort records).
    pub record_bytes: u32,
    /// Records per disk batch.
    pub batch_records: usize,
    /// Per-disk bandwidth in MB/s (the paper's disks: 5.5).
    pub disk_mb_per_s: f64,
}

impl NowSortParams {
    /// Default benchmark size (paper: 32M records; scaled per DESIGN.md).
    pub(crate) fn benchmark() -> Self {
        NowSortParams {
            records: 96 * 1024,
            record_bytes: 100,
            batch_records: 512,
            disk_mb_per_s: 5.5,
        }
    }

    /// A reduced size for tests.
    pub fn small() -> Self {
        NowSortParams {
            records: 8 * 1024,
            record_bytes: 100,
            batch_records: 256,
            disk_mb_per_s: 5.5,
        }
    }
}

/// The NOW-sort application.
#[derive(Clone, Debug)]
pub struct NowSort {
    params: NowSortParams,
}

impl NowSort {
    /// Creates the app with the given parameters.
    pub fn new(params: NowSortParams) -> Self {
        NowSort { params }
    }
}

impl SweepableApp for NowSort {
    fn name(&self) -> &str {
        "NOW-sort"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let params = self.params;
        let seed = spec.seed;
        execute(
            spec,
            DegradePolicy::Abort,
            |_| {},
            move |ctx| nowsort_body(ctx, params, seed),
        )
    }
}

/// Splits `batch` records among `p` destinations deterministically (a
/// multinomial draw both sender and verifier can recompute).
fn batch_split(rng: &mut impl Rng, batch: usize, p: usize) -> Vec<u64> {
    let mut counts = vec![0u64; p];
    // Draw per-record destinations in bulk (cheap, and exactly uniform).
    for _ in 0..batch {
        counts[rng.gen_range(0..p)] += 1;
    }
    counts
}

async fn nowsort_body(ctx: nowlab_splitc::Ctx, params: NowSortParams, seed: u64) -> u64 {
    let p = ctx.procs();
    let me = ctx.me();
    let n_local = params.records / p;
    let rec = params.record_bytes as u64;

    let mb = ctx.alloc_mailbox();
    ctx.barrier().await;

    start_measured_region(&ctx).await;

    // ---- Phase 1: read from disk A, scatter one-way bulk messages at
    // disk rate; disk B absorbs arrivals.
    let mut disk_read = Disk::new(params.disk_mb_per_s);
    let mut disk_write = Disk::new(params.disk_mb_per_s);
    let mut rng = proc_rng(seed, me, 0);
    let mut sent_away = 0u64;
    let mut kept = 0u64;
    let mut received = 0u64;
    let mut remaining = n_local;
    while remaining > 0 {
        let batch = remaining.min(params.batch_records);
        remaining -= batch;
        // The batch is available once the disk has streamed it; the CPU
        // idles (servicing the network) until then.
        let ready = disk_read.transfer(ctx.now(), batch as u64 * rec);
        ctx.idle_until(ready).await;
        // Drain any records that arrived while we waited.
        while let Some(mail) = ctx.try_recv_mail(mb) {
            received += mail.args[0];
            disk_write.transfer(ctx.now(), mail.args[0] * rec);
        }
        // Partition and send.
        ctx.compute(C_RECORD * batch as u64).await;
        let counts = batch_split(&mut rng, batch, p);
        for (dest, &cnt) in counts.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            if dest == me {
                kept += cnt;
                disk_write.transfer(ctx.now(), cnt * rec);
                continue;
            }
            sent_away += cnt;
            ctx.send_mail(
                dest,
                mb,
                [cnt, 0, 0],
                Payload::Synthetic((cnt * rec) as u32),
            )
            .await;
        }
    }
    ctx.sync().await;
    // Total records this processor must receive: every other processor's
    // deterministic draws are recomputable.
    let mut expected_in = 0u64;
    for src in 0..p {
        if src == me {
            continue;
        }
        let mut r = proc_rng(seed, src, 0);
        let mut rem = params.records / p;
        while rem > 0 {
            let batch = rem.min(params.batch_records);
            rem -= batch;
            expected_in += batch_split(&mut r, batch, p)[me];
        }
    }
    // Keep servicing the network (and spooling to disk B) until everything
    // has arrived.
    ctx.wait_until(|| ctx.mail_len(mb) > 0 || received >= expected_in)
        .await;
    while received < expected_in {
        while let Some(mail) = ctx.try_recv_mail(mb) {
            received += mail.args[0];
            disk_write.transfer(ctx.now(), mail.args[0] * rec);
        }
        if received >= expected_in {
            break;
        }
        ctx.wait_until(|| ctx.mail_len(mb) > 0).await;
    }
    // Wait for disk B to finish spooling.
    let spooled = disk_write.free_at.max(ctx.now());
    ctx.idle_until(spooled).await;
    ctx.barrier().await;

    // ---- Phase 2: local disk-to-disk merge sort (no communication).
    let my_total = kept + received;
    ctx.compute(C_RECORD * my_total).await;
    let mut disk_a = Disk::new(params.disk_mb_per_s);
    let done = disk_a.transfer(ctx.now(), my_total * rec);
    ctx.idle_until(done).await;
    ctx.barrier().await;

    end_measured_region(&ctx).await;

    // ---- Verification: global record conservation.
    let total = ctx.allreduce_sum(my_total).await;
    assert_eq!(
        total as usize,
        (params.records / p) * p,
        "nowsort: records lost or duplicated"
    );
    let _ = sent_away;
    my_total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_streams_sequentially() {
        let mut d = Disk::new(10.0); // 10 MB/s = 10 B/us
        let t1 = d.transfer(SimTime::ZERO, 1_000);
        assert_eq!(t1.as_micros_f64().round() as u64, 100);
        // Second transfer queues behind the first.
        let t2 = d.transfer(SimTime::ZERO, 500);
        assert_eq!(t2.as_micros_f64().round() as u64, 150);
        // A transfer requested after the disk went idle starts fresh.
        let t3 = d.transfer(SimTime::ZERO + SimDelta::from_micros(400.0), 100);
        assert_eq!(t3.as_micros_f64().round() as u64, 410);
    }

    #[test]
    fn batch_split_is_exact_and_deterministic() {
        let mut r1 = crate::common::proc_rng(3, 1, 0);
        let mut r2 = crate::common::proc_rng(3, 1, 0);
        let a = batch_split(&mut r1, 1_000, 7);
        let b = batch_split(&mut r2, 1_000, 7);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<u64>(), 1_000);
        assert!(a.iter().all(|&c| c > 0), "1000 draws cover 7 bins: {a:?}");
    }

    #[test]
    fn conserves_records_on_4_procs() {
        let out = NowSort::new(NowSortParams::small()).run(&RunSpec::new(4));
        assert!(out.completed);
        assert_eq!(out.check, 8 * 1024);
    }

    #[test]
    fn is_bulk_heavy_and_balanced() {
        let out = NowSort::new(NowSortParams::small()).run(&RunSpec::new(4));
        // Roughly half the messages are the bulk record batches, the other
        // half their transport acks (Table 4 shows 49.8% bulk).
        assert!(
            (out.stats.pct_bulk() - 50.0).abs() < 15.0,
            "bulk: {}",
            out.stats.pct_bulk()
        );
        assert!(out.stats.balance() < 1.2);
    }

    #[test]
    fn runtime_is_disk_limited_at_baseline() {
        // Phase 1 (read 200KB/proc at 5.5MB/s) + phase 2 ≈ 2·36ms ≈ 73ms;
        // the network adds almost nothing at 38 MB/s.
        let out = NowSort::new(NowSortParams::small()).run(&RunSpec::new(4));
        let expect = 2.0 * (2_048.0 * 100.0) / 5.5e6;
        let got = out.runtime.as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 0.25,
            "runtime {got} vs disk bound {expect}"
        );
    }

    #[test]
    fn insensitive_to_bandwidth_until_the_disk_rate() {
        use nowlab_core::{Axis, NetConfig};
        let app = NowSort::new(NowSortParams::small());
        let base = app.run(&RunSpec::new(4));
        let at = |mbps: f64| {
            let knobs = Axis::BulkBandwidth
                .knobs_for(&NetConfig::berkeley_now().machine, mbps)
                .unwrap();
            app.run(&RunSpec::new(4).with_net(NetConfig::berkeley_now().with_knobs(knobs)))
                .runtime
                .as_secs_f64()
        };
        let b = base.runtime.as_secs_f64();
        assert!(at(10.0) / b < 1.15, "flat above the disk rate");
        assert!(
            at(1.0) / b > 1.8,
            "slows once network < disk rate: {}",
            at(1.0) / b
        );
    }
}
