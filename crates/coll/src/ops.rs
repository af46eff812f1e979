//! The collective algorithms.
//!
//! Every operation is an async function generic over [`CollAccess`]; all
//! processors of the SPMD program must call the same collectives in the
//! same order (the epoch discipline of [`crate::CollState`] relies on it).
//! Handlers only deposit data — all forwarding happens in the calling
//! task after its own wait completes, because Active Message handlers
//! cannot themselves send requests.
//!
//! ## Fault behaviour
//!
//! Every wait carries a survivor escape (`… || peer_dead(partner)`), and
//! algorithms with downstream dependents forward *something* even when
//! degraded — an empty payload down a binomial subtree, a poison segment
//! down a chain — so that no surviving processor ever blocks on a victim
//! transitively. Under `DegradePolicy::Continue` a collective involving a
//! confirmed-dead peer completes with that peer's data missing (empty
//! blocks, partial sums); under `Abort` the cluster's death note halts
//! the run before the degraded values matter.

use nowlab_am::{CollKind, Mark, Payload, GAM_FRAG_BYTES};

use crate::state::{CollState, FAM_A2A, FAM_BCAST, FAM_GATHER, FAM_REDUCE, POISON_SEG};
use crate::{A2aAlgo, BcastAlgo, CollAccess, GatherAlgo, ReduceAlgo};

/// Largest power of two `≤ r` (`r ≥ 1`).
fn high_bit(r: usize) -> usize {
    1 << (usize::BITS - 1 - r.leading_zeros())
}

/// Smallest power of two `> r`.
fn next_pow_above(r: usize) -> usize {
    if r == 0 {
        1
    } else {
        high_bit(r) << 1
    }
}

/// Broadcasts `words` from `root` to every processor; returns the payload
/// (the root's own copy at the root). Non-roots may pass an empty slice.
/// If an upstream processor is confirmed dead the result degrades to the
/// segments that made it through (possibly empty) instead of hanging.
pub async fn broadcast<C: CollAccess>(
    c: &C,
    algo: BcastAlgo,
    root: usize,
    words: &[u64],
) -> Vec<u64> {
    let port = c.port();
    port.note_coll(CollKind::Broadcast);
    let epoch = c.with_coll(|s| s.next_epoch(FAM_BCAST));
    let p = port.num_procs();
    if p == 1 {
        return words.to_vec();
    }
    let out = match algo {
        BcastAlgo::Binomial => bcast_binomial(c, epoch, root, words).await,
        BcastAlgo::Chain => bcast_chain(c, epoch, root, words).await,
        BcastAlgo::ScatterAllgather => bcast_sag(c, epoch, root, words).await,
    };
    c.with_coll(|s| {
        CollState::sweep(&mut s.bcast, epoch);
        s.bcast_meta.remove(&epoch);
    });
    out
}

async fn bcast_binomial<C: CollAccess>(c: &C, epoch: u64, root: usize, words: &[u64]) -> Vec<u64> {
    let port = c.port();
    let h = c.handlers();
    let p = port.num_procs();
    let rank = (port.proc_id() + p - root) % p;
    let data = if rank == 0 {
        words.to_vec()
    } else {
        let parent = (root + rank - high_bit(rank)) % p;
        port.wait_until(|| {
            c.with_coll(|s| s.bcast.contains_key(&(epoch, 0))) || port.peer_dead(parent)
        })
        .await;
        c.with_coll(|s| s.bcast.remove(&(epoch, 0)))
            .unwrap_or_default()
    };
    // Forward even a degraded (empty) payload: the subtree below a dead
    // branch must terminate, not inherit the wait.
    let mut step = next_pow_above(rank);
    while rank + step < p {
        let child = (root + rank + step) % p;
        port.post(
            child,
            h.bcast,
            [epoch, 0, 1, 0],
            Payload::from_words(data.clone()),
            Mark::Bulk,
        )
        .await;
        step <<= 1;
    }
    data
}

async fn bcast_chain<C: CollAccess>(c: &C, epoch: u64, root: usize, words: &[u64]) -> Vec<u64> {
    let port = c.port();
    let h = c.handlers();
    let p = port.num_procs();
    let me = port.proc_id();
    let rank = (me + p - root) % p;
    let succ = if rank + 1 < p {
        Some((me + 1) % p)
    } else {
        None
    };
    let seg_words = GAM_FRAG_BYTES as usize / 8;
    if rank == 0 {
        if let Some(succ) = succ {
            if words.is_empty() {
                port.post(succ, h.bcast, [epoch, 0, 1, 0], Payload::None, Mark::Bulk)
                    .await;
            } else {
                let nseg = words.len().div_ceil(seg_words) as u64;
                for (k, seg) in words.chunks(seg_words).enumerate() {
                    port.post(
                        succ,
                        h.bcast,
                        [epoch, k as u64, nseg, 0],
                        Payload::from_words(seg.to_vec()),
                        Mark::Bulk,
                    )
                    .await;
                }
            }
        }
        return words.to_vec();
    }
    let pred = (me + p - 1) % p;
    let mut out: Vec<u64> = Vec::new();
    port.wait_until(|| c.with_coll(|s| s.bcast_meta.contains_key(&epoch)) || port.peer_dead(pred))
        .await;
    // nseg = 0 marks the poison a degraded predecessor forwarded.
    let nseg = c
        .with_coll(|s| s.bcast_meta.get(&epoch).copied())
        .unwrap_or(0);
    let mut degraded = nseg == 0;
    let mut k = 0;
    while !degraded && k < nseg {
        port.wait_until(|| {
            c.with_coll(|s| {
                s.bcast.contains_key(&(epoch, k)) || s.bcast.contains_key(&(epoch, POISON_SEG))
            }) || port.peer_dead(pred)
        })
        .await;
        match c.with_coll(|s| s.bcast.remove(&(epoch, k))) {
            Some(seg) => {
                if let Some(succ) = succ {
                    port.post(
                        succ,
                        h.bcast,
                        [epoch, k, nseg, 0],
                        Payload::from_words(seg.clone()),
                        Mark::Bulk,
                    )
                    .await;
                }
                out.extend_from_slice(&seg);
                k += 1;
            }
            None => degraded = true,
        }
    }
    if degraded {
        // Tell the rest of the chain the stream is dead; they complete
        // degraded instead of waiting on us (we are alive — our silence
        // would never trip their failure detectors).
        if let Some(succ) = succ {
            port.post(
                succ,
                h.bcast,
                [epoch, POISON_SEG, 0, 0],
                Payload::None,
                Mark::User,
            )
            .await;
        }
    }
    out
}

async fn bcast_sag<C: CollAccess>(c: &C, epoch: u64, root: usize, words: &[u64]) -> Vec<u64> {
    let port = c.port();
    let h = c.handlers();
    let p = port.num_procs();
    let me = port.proc_id();
    let rank = (me + p - root) % p;
    let len = words.len();
    // Scatter: block r (the rank-r slice of `words`) goes to the rank-r
    // processor.
    let mut blocks: Vec<Vec<u64>> = vec![Vec::new(); p];
    if rank == 0 {
        for r in 1..p {
            let dst = (root + r) % p;
            let seg = words[r * len / p..(r + 1) * len / p].to_vec();
            port.post(
                dst,
                h.bcast,
                [epoch, r as u64, 0, 0],
                Payload::from_words(seg),
                Mark::Bulk,
            )
            .await;
        }
        blocks[0] = words[..len / p].to_vec();
    } else {
        port.wait_until(|| {
            c.with_coll(|s| s.bcast.contains_key(&(epoch, rank as u64))) || port.peer_dead(root)
        })
        .await;
        blocks[rank] = c
            .with_coll(|s| s.bcast.remove(&(epoch, rank as u64)))
            .unwrap_or_default();
    }
    // Ring allgather of the blocks: at step s, forward block (rank − s)
    // and collect block (rank − s − 1), both mod P.
    let succ = (me + 1) % p;
    let pred = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_idx = (rank + p - s) % p;
        let recv_idx = (rank + p - s - 1) % p;
        port.post(
            succ,
            h.bcast,
            [epoch, send_idx as u64, 0, 0],
            Payload::from_words(blocks[send_idx].clone()),
            Mark::Bulk,
        )
        .await;
        port.wait_until(|| {
            c.with_coll(|s| s.bcast.contains_key(&(epoch, recv_idx as u64))) || port.peer_dead(pred)
        })
        .await;
        blocks[recv_idx] = c
            .with_coll(|s| s.bcast.remove(&(epoch, recv_idx as u64)))
            .unwrap_or_default();
    }
    let mut out = Vec::with_capacity(len);
    for b in &blocks {
        out.extend_from_slice(b);
    }
    out
}

/// Global wrapping sum of one `u64` per processor; every survivor returns
/// the total. With a confirmed-dead peer the total degrades to the
/// contributions that reached the combining processors.
pub async fn allreduce_sum<C: CollAccess>(c: &C, algo: ReduceAlgo, value: u64) -> u64 {
    let port = c.port();
    port.note_coll(CollKind::Reduce);
    let epoch = c.with_coll(|s| s.next_epoch(FAM_REDUCE));
    let p = port.num_procs();
    if p == 1 {
        return value;
    }
    let total = match algo {
        ReduceAlgo::Flat => reduce_flat(c, epoch, value).await,
        ReduceAlgo::Tree => reduce_tree(c, epoch, value).await,
    };
    c.with_coll(|s| {
        s.flat.remove(&epoch);
        s.result.remove(&epoch);
        let stale: Vec<(u64, u64)> = s
            .contrib
            .range((epoch, 0)..=(epoch, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            s.contrib.remove(&k);
        }
    });
    total
}

async fn reduce_flat<C: CollAccess>(c: &C, epoch: u64, value: u64) -> u64 {
    let port = c.port();
    let h = c.handlers();
    let p = port.num_procs();
    if port.proc_id() == 0 {
        c.with_coll(|s| {
            let acc = s.flat.entry(epoch).or_insert((0, 0));
            acc.0 = acc.0.wrapping_add(value);
            acc.1 += 1;
        });
        // One contribution per processor the detector still counts alive;
        // the membership view is re-read every poll, so a mid-reduce death
        // lowers the bar instead of stalling it.
        port.wait_until(|| {
            let alive = port.alive_count() as u64;
            c.with_coll(|s| s.flat.get(&epoch).map_or(0, |a| a.1)) >= alive
        })
        .await;
        let total = c.with_coll(|s| s.flat.remove(&epoch)).map_or(0, |a| a.0);
        for dst in 1..p {
            port.post(
                dst,
                h.result,
                [epoch, total, 0, 0],
                Payload::None,
                Mark::User,
            )
            .await;
        }
        total
    } else {
        port.post(0, h.flat, [epoch, value, 0, 0], Payload::None, Mark::User)
            .await;
        port.wait_until(|| c.with_coll(|s| s.result.contains_key(&epoch)) || port.peer_dead(0))
            .await;
        c.with_coll(|s| s.result.remove(&epoch)).unwrap_or(value)
    }
}

async fn reduce_tree<C: CollAccess>(c: &C, epoch: u64, value: u64) -> u64 {
    let port = c.port();
    let h = c.handlers();
    let p = port.num_procs();
    let me = port.proc_id();
    // Combine up a binomial tree rooted at 0: in round r, processors at
    // even multiples of 2^r receive from the odd multiples 2^r away.
    let mut acc = value;
    for r in 0..crate::model::ceil_log2(p) {
        let bit = 1usize << r;
        if me & ((bit << 1) - 1) == 0 {
            let partner = me + bit;
            if partner < p {
                port.wait_until(|| {
                    c.with_coll(|s| s.contrib.contains_key(&(epoch, partner as u64)))
                        || port.peer_dead(partner)
                })
                .await;
                let v = c
                    .with_coll(|s| s.contrib.remove(&(epoch, partner as u64)))
                    .unwrap_or(0);
                acc = acc.wrapping_add(v);
            }
        } else if me & (bit - 1) == 0 {
            let parent = me - bit;
            port.post(
                parent,
                h.contrib,
                [epoch, me as u64, acc, 0],
                Payload::None,
                Mark::User,
            )
            .await;
            break;
        }
    }
    // Fan the total back down the (high-bit) binomial broadcast tree.
    let total = if me == 0 {
        acc
    } else {
        let parent = me - high_bit(me);
        port.wait_until(|| {
            c.with_coll(|s| s.result.contains_key(&epoch)) || port.peer_dead(parent)
        })
        .await;
        c.with_coll(|s| s.result.remove(&epoch)).unwrap_or(acc)
    };
    let mut step = next_pow_above(me);
    while me + step < p {
        port.post(
            me + step,
            h.result,
            [epoch, total, 0, 0],
            Payload::None,
            Mark::User,
        )
        .await;
        step <<= 1;
    }
    total
}

/// Gathers one block per processor everywhere: `out[q]` is processor `q`'s
/// `words` (empty for confirmed-dead peers whose block never arrived).
pub async fn allgather<C: CollAccess>(c: &C, algo: GatherAlgo, words: &[u64]) -> Vec<Vec<u64>> {
    let port = c.port();
    port.note_coll(CollKind::Allgather);
    let epoch = c.with_coll(|s| s.next_epoch(FAM_GATHER));
    let p = port.num_procs();
    let me = port.proc_id();
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); p];
    out[me] = words.to_vec();
    if p == 1 {
        return out;
    }
    match algo {
        GatherAlgo::Ring => {
            let h = c.handlers();
            let succ = (me + 1) % p;
            let pred = (me + p - 1) % p;
            // Step s forwards the block that originated s hops upstream;
            // a dead predecessor leaves those origins empty, but the
            // forwards continue so downstream survivors never block on us.
            for s in 0..p - 1 {
                let send_idx = (me + p - s) % p;
                let recv_idx = (me + p - s - 1) % p;
                port.post(
                    succ,
                    h.block,
                    [epoch, send_idx as u64, 0, 0],
                    Payload::from_words(out[send_idx].clone()),
                    Mark::Bulk,
                )
                .await;
                port.wait_until(|| {
                    c.with_coll(|s| s.blocks.contains_key(&(epoch, recv_idx as u64)))
                        || port.peer_dead(pred)
                })
                .await;
                out[recv_idx] = c
                    .with_coll(|s| s.blocks.remove(&(epoch, recv_idx as u64)))
                    .unwrap_or_default();
            }
        }
        GatherAlgo::Direct => {
            direct_exchange(c, epoch, &mut out, |_| words.to_vec(), false).await;
        }
    }
    c.with_coll(|s| CollState::sweep(&mut s.blocks, epoch));
    out
}

/// Personalized all-to-all: processor `q` receives `blocks[q]` from every
/// peer; `out[q]` is what `q` sent here (empty for confirmed-dead peers).
/// `blocks` must hold one entry per processor.
pub async fn alltoall<C: CollAccess>(c: &C, algo: A2aAlgo, blocks: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let port = c.port();
    let p = port.num_procs();
    assert_eq!(blocks.len(), p, "alltoall needs one block per processor");
    port.note_coll(CollKind::AllToAll);
    let epoch = c.with_coll(|s| s.next_epoch(FAM_A2A));
    let me = port.proc_id();
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); p];
    out[me] = blocks[me].clone();
    if p == 1 {
        return out;
    }
    let h = c.handlers();
    match algo {
        A2aAlgo::Direct => {
            direct_exchange(c, epoch, &mut out, |dst| blocks[dst].clone(), true).await;
        }
        A2aAlgo::Pairwise => {
            for s in 1..p {
                let to = (me + s) % p;
                let from = (me + p - s) % p;
                port.post(
                    to,
                    h.exch,
                    [epoch, me as u64, 0, 0],
                    Payload::from_words(blocks[to].clone()),
                    Mark::Bulk,
                )
                .await;
                port.wait_until(|| {
                    c.with_coll(|st| st.exch.contains_key(&(epoch, from as u64)))
                        || port.peer_dead(from)
                })
                .await;
                out[from] = c
                    .with_coll(|st| st.exch.remove(&(epoch, from as u64)))
                    .unwrap_or_default();
            }
        }
    }
    c.with_coll(|s| CollState::sweep(&mut s.exch, epoch));
    out
}

/// The shared body of the direct (fully-connected) exchanges: post one
/// block to every peer in staggered order, then collect until every
/// still-alive peer's block (or its death) accounts for all `P−1` slots.
async fn direct_exchange<C: CollAccess>(
    c: &C,
    epoch: u64,
    out: &mut [Vec<u64>],
    block_for: impl Fn(usize) -> Vec<u64>,
    personalized: bool,
) {
    let port = c.port();
    let h = c.handlers();
    let p = port.num_procs();
    let me = port.proc_id();
    let handler = if personalized { h.exch } else { h.block };
    for off in 1..p {
        let dst = (me + off) % p;
        port.post(
            dst,
            handler,
            [epoch, me as u64, 0, 0],
            Payload::from_words(block_for(dst)),
            Mark::Bulk,
        )
        .await;
    }
    port.wait_until(|| {
        let dead = p - port.alive_count();
        let got = c.with_coll(|s| {
            let map = if personalized { &s.exch } else { &s.blocks };
            map.range((epoch, 0)..=(epoch, u64::MAX)).count()
        });
        got + dead >= p - 1
    })
    .await;
    let got: Vec<(u64, Vec<u64>)> = c.with_coll(|s| {
        let map = if personalized {
            &mut s.exch
        } else {
            &mut s.blocks
        };
        let keys: Vec<(u64, u64)> = map
            .range((epoch, 0)..=(epoch, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .filter_map(|k| map.remove(&k).map(|w| (k.1, w)))
            .collect()
    });
    for (src, w) in got {
        out[src as usize] = w;
    }
}
