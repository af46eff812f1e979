//! Parallel Murphi — distributed explicit-state protocol verification
//! (paper §4.1, Table 3 row 7; Stern & Dill's parallel Murphi).
//!
//! The exponential space of reachable protocol states is explored in
//! parallel: a hash function assigns each state an owning processor; newly
//! discovered states are sent to their owner as one-way Active Messages
//! carrying the state vector (bulk payload — Table 4 shows Murphi at
//! 50.0% bulk). Each processor keeps a work queue and a hash table of
//! seen states, and validates an invariant on every expansion.
//!
//! The verified model is a directory-based MSI cache-coherence protocol
//! with `C` caches (the paper verified an SCI protocol configuration):
//! caches spontaneously issue GetS/GetM requests, the directory serves one
//! pending request at a time (the interleaving is the nondeterminism), and
//! shared lines may be silently evicted. The checked invariant is
//! coherence: at most one cache in M, and never M alongside a non-I peer.

use std::collections::{BTreeSet, VecDeque};

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};
use nowlab_splitc::Payload;
use nowlab_splitc::{SimDelta, SimTime};

use crate::common::{end_measured_region, execute, mix64, start_measured_region, DegradePolicy};

/// CPU cost of expanding a state (hashing + rule evaluation).
const C_EXPAND: SimDelta = SimDelta::from_nanos(500_000);
/// CPU cost per generated successor.
const C_SUCC: SimDelta = SimDelta::from_nanos(25_000);
/// Wire size of a Murphi state vector (bytes).
const STATE_BYTES: u32 = 40;

/// Cache states.
const I: u32 = 0;
const S: u32 = 1;
const M: u32 = 2;
/// Pending-request kinds.
const NONE: u32 = 0;
const GETS: u32 = 1;
const GETM: u32 = 2;

/// Parameters of the verification run.
#[derive(Clone, Copy, Debug)]
pub struct MurphiParams {
    /// Number of caches in the MSI model (state space grows
    /// exponentially: 3 caches ≈ 10² states, 6 caches ≈ 10⁴·⁵).
    pub caches: u32,
}

impl MurphiParams {
    /// Default benchmark size.
    pub(crate) fn benchmark() -> Self {
        MurphiParams { caches: 6 }
    }

    /// A reduced size for tests.
    pub(crate) fn small() -> Self {
        MurphiParams { caches: 3 }
    }
}

/// A protocol state: 4 bits per cache (2 state + 2 pending).
fn cache_state(s: u32, i: u32) -> u32 {
    (s >> (4 * i)) & 0x3
}
fn cache_pending(s: u32, i: u32) -> u32 {
    (s >> (4 * i + 2)) & 0x3
}
fn with_cache(s: u32, i: u32, st: u32, pend: u32) -> u32 {
    (s & !(0xF << (4 * i))) | ((st | (pend << 2)) << (4 * i))
}

/// The coherence invariant: at most one M, and M implies all others I.
pub(crate) fn invariant_holds(s: u32, caches: u32) -> bool {
    let m_count = (0..caches).filter(|&i| cache_state(s, i) == M).count();
    if m_count > 1 {
        return false;
    }
    if m_count == 1 {
        return (0..caches).all(|i| cache_state(s, i) == M || cache_state(s, i) == I);
    }
    true
}

/// All successor states of `s` under the protocol rules.
pub(crate) fn successors(s: u32, caches: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for i in 0..caches {
        let st = cache_state(s, i);
        let pend = cache_pending(s, i);
        // Rule 1: issue GetS from I.
        if pend == NONE && st == I {
            out.push(with_cache(s, i, st, GETS));
        }
        // Rule 2: issue GetM unless already M.
        if pend == NONE && st != M {
            out.push(with_cache(s, i, st, GETM));
        }
        // Rule 3: directory serves GetS — downgrade any M holder.
        if pend == GETS {
            let mut t = s;
            for j in 0..caches {
                if cache_state(t, j) == M {
                    t = with_cache(t, j, S, cache_pending(t, j));
                }
            }
            out.push(with_cache(t, i, S, NONE));
        }
        // Rule 4: directory serves GetM — invalidate all others.
        if pend == GETM {
            let mut t = s;
            for j in 0..caches {
                if j != i {
                    t = with_cache(t, j, I, cache_pending(t, j));
                }
            }
            out.push(with_cache(t, i, M, NONE));
        }
        // Rule 5: silent eviction of a shared line.
        if pend == NONE && st == S {
            out.push(with_cache(s, i, I, NONE));
        }
    }
    out
}

/// [`successors`] as the verifier's `u64` state vectors.
fn successors_u64(s: u64, caches: u32) -> Vec<u64> {
    successors(s as u32, caches)
        .into_iter()
        .map(u64::from)
        .collect()
}

/// Sequential reference: full BFS; returns (state count, hash sum).
pub fn sequential_explore(params: &MurphiParams) -> (u64, u64) {
    let caches = params.caches;
    let mut visited = BTreeSet::new();
    let mut queue = VecDeque::from([0u64]);
    let mut hash_sum = 0u64;
    while let Some(s) = queue.pop_front() {
        if !visited.insert(s) {
            continue;
        }
        assert!(
            invariant_holds(s as u32, caches),
            "protocol bug at {s:016x}"
        );
        hash_sum = hash_sum.wrapping_add(mix64(s));
        for t in successors_u64(s, caches) {
            if !visited.contains(&t) {
                queue.push_back(t);
            }
        }
    }
    (visited.len() as u64, hash_sum)
}

/// The parallel Murphi application.
#[derive(Clone, Debug)]
pub struct Murphi {
    caches: u32,
}

impl Murphi {
    /// Creates the verifier over the MSI model.
    pub fn new(params: MurphiParams) -> Self {
        Murphi {
            caches: params.caches,
        }
    }
}

impl SweepableApp for Murphi {
    fn name(&self) -> &str {
        "Murphi"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let caches = self.caches;
        execute(
            spec,
            DegradePolicy::Abort,
            |_| {},
            move |ctx| murphi_body(ctx, caches),
        )
    }
}

async fn murphi_body(ctx: nowlab_splitc::Ctx, caches: u32) -> u64 {
    let p = ctx.procs();
    let me = ctx.me();
    let owner = |s: u64| (mix64(s) % p as u64) as usize;

    let mb = ctx.alloc_mailbox();
    ctx.barrier().await;
    start_measured_region(&ctx).await;

    let mut visited: BTreeSet<u64> = BTreeSet::new();
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut hash_sum = 0u64;
    let mut sent = 0u64;
    let mut received = 0u64;
    if owner(0) == me {
        queue.push_back(0);
    }

    loop {
        // Work until locally idle.
        loop {
            while let Some(mail) = ctx.try_recv_mail(mb) {
                received += 1;
                queue.push_back(mail.args[0]);
            }
            let Some(s) = queue.pop_front() else { break };
            if !visited.insert(s) {
                continue;
            }
            ctx.compute(C_EXPAND).await;
            assert!(
                invariant_holds(s as u32, caches),
                "protocol bug at {s:016x}"
            );
            hash_sum = hash_sum.wrapping_add(mix64(s));
            for t in successors_u64(s, caches) {
                ctx.compute(C_SUCC).await;
                let o = owner(t);
                if o == me {
                    queue.push_back(t);
                } else {
                    sent += 1;
                    ctx.send_mail(o, mb, [t, 0, 0], Payload::Synthetic(STATE_BYTES))
                        .await;
                }
            }
        }
        // Distributed termination: globally, everything sent has been
        // received, twice in a row, with an empty mailbox.
        let gs = ctx.allreduce_sum(sent).await;
        let gr = ctx.allreduce_sum(received).await;
        if gs == gr {
            let gs2 = ctx.allreduce_sum(sent).await;
            let gr2 = ctx.allreduce_sum(received).await;
            if gs2 == gs && gr2 == gr && ctx.mail_len(mb) == 0 {
                break;
            }
        } else {
            // Let in-flight states land before re-checking.
            let deadline: SimTime = ctx.now() + SimDelta::from_micros(100.0);
            ctx.idle_until(deadline).await;
        }
    }

    end_measured_region(&ctx).await;

    // Contribution: local hash sum + state count in the high bits' flavor
    // (summed commutatively across processors by the harness).
    hash_sum.wrapping_add(visited.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_model_has_a_nontrivial_state_space() {
        let (n3, _) = sequential_explore(&MurphiParams { caches: 3 });
        let (n4, _) = sequential_explore(&MurphiParams { caches: 4 });
        assert!(n3 > 50, "3 caches: {n3}");
        assert!(n4 > 4 * n3, "state space must grow exponentially: {n4}");
    }

    #[test]
    fn parallel_exploration_matches_sequential() {
        let params = MurphiParams::small();
        let (count, hash_sum) = sequential_explore(&params);
        let out = Murphi::new(params).run(&RunSpec::new(4));
        assert!(out.completed);
        assert_eq!(out.check, hash_sum.wrapping_add(count));
    }

    #[test]
    fn parallel_matches_on_odd_procs_too() {
        let params = MurphiParams::small();
        let (count, hash_sum) = sequential_explore(&params);
        let out = Murphi::new(params).run(&RunSpec::new(3));
        assert_eq!(out.check, hash_sum.wrapping_add(count));
    }

    #[test]
    fn state_sends_are_bulk() {
        let out = Murphi::new(MurphiParams::small()).run(&RunSpec::new(4));
        assert!(
            out.stats.pct_bulk() > 20.0,
            "murphi state sends are bulk: {}",
            out.stats.pct_bulk()
        );
        assert!(out.stats.pct_reads() < 5.0);
    }

    #[test]
    fn successors_preserve_the_invariant_from_reachable_states() {
        // BFS over the reachable space: every successor of a reachable
        // state satisfies the invariant (soundness of the protocol), and
        // no successor equals its parent (no stutter rules).
        let caches = 4;
        let mut seen = std::collections::BTreeSet::new();
        let mut q = std::collections::VecDeque::from([0u32]);
        while let Some(s) = q.pop_front() {
            if !seen.insert(s) {
                continue;
            }
            for t in successors(s, caches) {
                assert_ne!(t, s, "stutter transition at {s:08x}");
                assert!(invariant_holds(t, caches), "bug reachable from {s:08x}");
                q.push_back(t);
            }
        }
        assert!(
            seen.len() > 300,
            "reachable space too small: {}",
            seen.len()
        );
    }

    #[test]
    fn state_encoding_round_trips() {
        let mut s = 0u32;
        s = with_cache(s, 0, M, NONE);
        s = with_cache(s, 2, S, GETM);
        assert_eq!(cache_state(s, 0), M);
        assert_eq!(cache_pending(s, 0), NONE);
        assert_eq!(cache_state(s, 2), S);
        assert_eq!(cache_pending(s, 2), GETM);
        assert_eq!(cache_state(s, 1), I);
        // Overwriting a cache does not disturb its neighbors.
        s = with_cache(s, 1, S, GETS);
        assert_eq!(cache_state(s, 0), M);
        assert_eq!(cache_state(s, 2), S);
    }

    #[test]
    fn invariant_catches_an_injected_bug() {
        // Two caches in M simultaneously must be flagged.
        let bad = with_cache(with_cache(0, 0, M, NONE), 1, M, NONE);
        assert!(!invariant_holds(bad, 3));
        // M alongside S is also incoherent.
        let bad2 = with_cache(with_cache(0, 0, M, NONE), 1, S, NONE);
        assert!(!invariant_holds(bad2, 3));
        assert!(invariant_holds(with_cache(0, 0, M, NONE), 3));
    }
}
