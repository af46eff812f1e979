//! A minimal SPMD harness for measuring one collective in isolation.
//!
//! The conformance suite compares the analytic model against *simulated*
//! completion time; this module builds the smallest cluster that can run
//! one collective — [`CollState`] is the entire user state — and reports
//! when the last processor's call returned (trailing acks excluded, since
//! the model predicts operation completion, not wire drain).

use std::cell::Cell;
use std::rc::Rc;

use nowlab_am::{AmCluster, AmPort, NetConfig};
use nowlab_sim::{Sim, SimDelta, SimTime};

use crate::{ops, A2aAlgo, BcastAlgo, CollAccess, CollHandlers, CollState, GatherAlgo, ReduceAlgo};

/// A [`CollAccess`] over a bare cluster whose user state *is* the
/// [`CollState`] (no application around it).
pub struct RawColl {
    port: AmPort,
    handlers: CollHandlers,
}

impl RawColl {
    /// Processor `proc`'s access to a cluster prepared by
    /// [`install`].
    pub fn new(cluster: &AmCluster, handlers: CollHandlers, proc: usize) -> Self {
        RawColl {
            port: cluster.port(proc),
            handlers,
        }
    }
}

impl CollAccess for RawColl {
    fn port(&self) -> &AmPort {
        &self.port
    }

    fn handlers(&self) -> CollHandlers {
        self.handlers
    }

    fn with_coll<R>(&self, f: impl FnOnce(&mut CollState) -> R) -> R {
        self.port.with_state::<CollState, R>(f)
    }
}

/// Registers the collective handlers on `cluster` and installs a fresh
/// [`CollState`] as every processor's user state.
pub fn install(cluster: &AmCluster) -> CollHandlers {
    let handlers = CollHandlers::register(cluster, |any| {
        any.downcast_mut::<CollState>()
            .expect("harness user state is CollState")
    });
    for p in 0..cluster.stats().per_proc.len() {
        cluster.set_state(p, Box::new(CollState::default()));
    }
    handlers
}

/// One collective call to measure: the variant plus the payload size in
/// 64-bit words (per processor for allgather, per destination for
/// all-to-all).
#[derive(Clone, Copy, Debug)]
pub enum OpSpec {
    /// Broadcast `n` words from processor 0.
    Broadcast(BcastAlgo, usize),
    /// Allreduce-sum of one word per processor.
    Reduce(ReduceAlgo),
    /// Allgather of `n`-word per-processor blocks.
    Allgather(GatherAlgo, usize),
    /// All-to-all of `n`-word per-destination blocks.
    AllToAll(A2aAlgo, usize),
}

/// What [`measure`] observed.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Virtual time at which the *last* processor's call returned.
    pub elapsed: SimDelta,
    /// One order-insensitive checksum of the received data per processor
    /// (all equal on a healthy cluster — the correctness half of the
    /// conformance contract).
    pub checks: Vec<u64>,
}

/// Deterministic per-word test pattern.
fn pattern(seed: u64, i: u64) -> u64 {
    (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(i.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

fn fold(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &w in words {
        acc = acc.wrapping_add(w);
    }
    acc
}

/// Runs `op` once on a fresh `procs`-processor cluster over `net` and
/// reports completion time and per-processor result checksums.
pub fn measure(op: OpSpec, procs: usize, net: NetConfig) -> Measured {
    let cluster = AmCluster::new(Sim::new(), net, procs);
    let sim = cluster.sim();
    let handlers = install(&cluster);
    let done = Rc::new(Cell::new(0usize));
    let mut handles = Vec::with_capacity(procs);
    for me in 0..procs {
        let access = RawColl::new(&cluster, handlers, me);
        let done = Rc::clone(&done);
        handles.push(sim.spawn(async move {
            let port = access.port();
            let check = match op {
                OpSpec::Broadcast(algo, n) => {
                    let words: Vec<u64> = if port.proc_id() == 0 {
                        (0..n as u64).map(|i| pattern(1, i)).collect()
                    } else {
                        Vec::new()
                    };
                    let got = ops::broadcast(&access, algo, 0, &words).await;
                    fold(&got)
                }
                OpSpec::Reduce(algo) => {
                    ops::allreduce_sum(&access, algo, pattern(2, port.proc_id() as u64)).await
                }
                OpSpec::Allgather(algo, n) => {
                    let words: Vec<u64> = (0..n as u64)
                        .map(|i| pattern(port.proc_id() as u64, i))
                        .collect();
                    let got = ops::allgather(&access, algo, &words).await;
                    let mut acc = 0u64;
                    for b in &got {
                        acc = acc.wrapping_add(fold(b));
                    }
                    acc
                }
                OpSpec::AllToAll(algo, n) => {
                    let me = port.proc_id() as u64;
                    let blocks: Vec<Vec<u64>> = (0..procs as u64)
                        .map(|dst| {
                            (0..n as u64)
                                .map(|i| pattern(me ^ (dst << 32), i))
                                .collect()
                        })
                        .collect();
                    let got = ops::alltoall(&access, algo, &blocks).await;
                    // Personalized: sum what everyone sent *to this rank*
                    // is rank-dependent, so checksum over the senders'
                    // seeds instead to keep checks comparable.
                    let mut acc = 0u64;
                    for (src, b) in got.iter().enumerate() {
                        acc = acc.wrapping_add(
                            fold(b).wrapping_sub(fold(
                                &(0..n as u64)
                                    .map(|i| pattern(src as u64 ^ (me << 32), i))
                                    .collect::<Vec<u64>>(),
                            )),
                        );
                    }
                    acc
                }
            };
            let finished = port.now();
            // Exit protocol: drain own acks while everyone else is still
            // serving, then spin the network until the whole cluster is
            // done — otherwise an early finisher stops polling and the
            // stragglers' posts to it never complete.
            port.quiesce().await;
            done.set(done.get() + 1);
            if done.get() == procs {
                port.cluster().poke_all();
            }
            port.wait_until(|| done.get() == procs).await;
            (finished, check)
        }));
    }
    sim.run();
    let mut elapsed = SimDelta::ZERO;
    let mut checks = Vec::with_capacity(procs);
    for h in handles {
        let (finished, check) = h.try_take().expect("harness processor completed");
        elapsed = elapsed.max(finished.since(SimTime::ZERO));
        checks.push(check);
    }
    Measured { elapsed, checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_delivers_identical_data_on_every_variant() {
        for algo in BcastAlgo::ALL {
            let m = measure(OpSpec::Broadcast(algo, 100), 8, NetConfig::berkeley_now());
            let expect: Vec<u64> = (0..100).map(|i| pattern(1, i)).collect();
            for (p, chk) in m.checks.iter().enumerate() {
                assert_eq!(*chk, fold(&expect), "{algo} proc {p}");
            }
            assert!(m.elapsed > SimDelta::ZERO, "{algo}");
        }
    }

    #[test]
    fn reduce_agrees_with_a_local_sum_on_every_variant() {
        let mut expect = 0u64;
        for q in 0..8u64 {
            expect = expect.wrapping_add(pattern(2, q));
        }
        for algo in ReduceAlgo::ALL {
            let m = measure(OpSpec::Reduce(algo), 8, NetConfig::berkeley_now());
            assert_eq!(m.checks, vec![expect; 8], "{algo}");
        }
    }

    #[test]
    fn allgather_collects_every_block_on_every_variant() {
        let mut expect = 0u64;
        for q in 0..6u64 {
            for i in 0..40u64 {
                expect = expect.wrapping_add(pattern(q, i));
            }
        }
        for algo in GatherAlgo::ALL {
            let m = measure(OpSpec::Allgather(algo, 40), 6, NetConfig::berkeley_now());
            assert_eq!(m.checks, vec![expect; 6], "{algo}");
        }
    }

    #[test]
    fn alltoall_routes_personalized_blocks_on_every_variant() {
        for algo in A2aAlgo::ALL {
            let m = measure(OpSpec::AllToAll(algo, 16), 6, NetConfig::berkeley_now());
            // The harness checksum subtracts the expected pattern per
            // (src, dst) pair, so a correct exchange nets to zero.
            assert_eq!(m.checks, vec![0; 6], "{algo}");
        }
    }

    #[test]
    fn odd_processor_counts_work() {
        for procs in [2, 3, 5, 7] {
            for algo in BcastAlgo::ALL {
                let m = measure(
                    OpSpec::Broadcast(algo, 33),
                    procs,
                    NetConfig::berkeley_now(),
                );
                assert_eq!(m.checks.len(), procs, "{algo} p={procs}");
                assert!(
                    m.checks.windows(2).all(|w| w[0] == w[1]),
                    "{algo} p={procs}"
                );
            }
            for algo in ReduceAlgo::ALL {
                let m = measure(OpSpec::Reduce(algo), procs, NetConfig::berkeley_now());
                assert!(
                    m.checks.windows(2).all(|w| w[0] == w[1]),
                    "{algo} p={procs}"
                );
            }
        }
    }
}
