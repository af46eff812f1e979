//! Differential property test: the timer-wheel kernel against the
//! ordering rules of the binary-heap kernel it replaced.
//!
//! The old kernel's contract was simple: events fire in strictly
//! ascending `(time, seq)` lexicographic order, where `seq` is the
//! global registration sequence. The wheel must preserve that contract
//! bit-for-bit. This test replays seeded random workloads —
//! same-instant ties, in-run rescheduling, far-future overflow timers,
//! mid-run `halt()`, and event-limit chunking that splits same-instant
//! batches — against a reference `BinaryHeap` model that implements the
//! rules directly, and asserts the firing sequences are identical.
//!
//! The events come in every shape the kernel stores differently — boxed
//! closures (action slab), hook events that pack into the wheel entry,
//! hook events whose token is too wide to, and task sleeps (polled at
//! the fire point, no waker) — and share instants freely, so a batch
//! mixes all of them. One workload crowds a single 256 ns bucket with
//! distinct instants and ties direct pushes to promoted overflow entries,
//! the case where a bucket's chain is not simply appended to.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use nowlab_sim::{Sim, SimDelta, SimTime, StopReason};

/// Deterministic xorshift64 — no host randomness may reach a workload.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// How an op reaches the kernel.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `schedule`: a boxed closure in the slab.
    Call,
    /// `schedule_hook`, packed into the wheel entry.
    Hook,
    /// `schedule_hook` with a token ≥ 2⁵⁶: falls back to the slab.
    WideHook,
    /// A spawned task that `sleep_until`s the op's time and then acts.
    /// Its timer is registered when the task is first polled — at the
    /// start of `run()`, after every pre-scheduled timer, in spawn order.
    Sleep,
}

/// What an op does when it fires, whichever way it was scheduled.
type Act = dyn Fn(&Sim, Op);

/// Set on a `WideHook` token; the dispatcher masks it off.
const WIDE_BIT: u64 = 1 << 60;

/// One pre-scheduled timer plus everything its callback will do.
#[derive(Clone, Copy)]
struct Op {
    id: u32,
    kind: Kind,
    time: u64,
    /// When fired, schedules a child callback at `now + delta`.
    child: Option<(u64, u32)>,
    /// When fired, requests an orderly halt.
    halts: bool,
}

/// Child ids live in a disjoint range from initial ids.
const CHILD_BASE: u32 = 1 << 20;

fn build_ops(seed: u64, n: u32, with_halt: bool) -> Vec<Op> {
    let mut rng = XorShift(seed);
    let mut ops: Vec<Op> = Vec::with_capacity(n as usize);
    for id in 0..n {
        let time = match rng.next() % 10 {
            // Dense cluster: ties and shared buckets.
            0..=4 => 1 + rng.next() % 4_096,
            // Exact tie with an earlier op.
            5..=6 if id > 0 => ops[(rng.next() % u64::from(id)) as usize].time,
            // Bucket-boundary values.
            7 => (1 + rng.next() % 512) << 8,
            // Far future: beyond the ring horizon, lands in overflow.
            _ => 300_000 + rng.next() % 2_000_000,
        };
        let kind = match rng.next() % 8 {
            0..=2 => Kind::Call,
            3..=4 => Kind::Hook,
            5 => Kind::WideHook,
            _ => Kind::Sleep,
        };
        ops.push(Op {
            id,
            kind,
            time,
            child: if id % 7 == 0 {
                Some((1 + rng.next() % 100_000, CHILD_BASE + id))
            } else {
                None
            },
            halts: false,
        });
    }
    if with_halt {
        let h = (rng.next() % u64::from(n)) as usize;
        ops[h].halts = true;
    }
    ops
}

/// Every op in one 256 ns bucket past the ring horizon at `t = 0`, at
/// many distinct instants, so all of them wait in the overflow heap. An
/// eighth fire first, at about 100 µs, after the bucket has been promoted,
/// and each schedules a child into it: half at the instant the most
/// promoted ops share (direct pushes tied with promoted entries), half
/// anywhere in the bucket (often before instants it already holds).
fn one_bucket_ops(seed: u64, n: u32) -> Vec<Op> {
    const BASE: u64 = 1_200 << 8;
    const HOT: u64 = BASE + 128;
    let mut rng = XorShift(seed);
    (0..n)
        .map(|id| {
            let kind = match rng.next() % 4 {
                0 => Kind::Call,
                1 => Kind::Hook,
                2 => Kind::WideHook,
                _ => Kind::Sleep,
            };
            let mut in_bucket = || match rng.next() % 3 {
                0 => HOT,
                _ => BASE + rng.next() % 256,
            };
            let (time, child) = if id < n / 8 {
                let time = 100_000 + id as u64 % 1_000;
                let at = in_bucket();
                (time, Some((at - time, CHILD_BASE + id)))
            } else {
                (in_bucket(), None)
            };
            Op {
                id,
                kind,
                time,
                child,
                halts: false,
            }
        })
        .collect()
}

/// The old kernel's rules, implemented directly on a `(time, seq)`
/// min-heap. Ignores `halts` — it returns the complete uninterrupted
/// order.
fn reference_order(ops: &[Op]) -> Vec<u32> {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    // Registration order: every directly scheduled op, then the sleeping
    // tasks' timers as the first poll round reaches them.
    let (sleeps, direct): (Vec<&Op>, Vec<&Op>) = ops.iter().partition(|op| op.kind == Kind::Sleep);
    let mut seq = 0;
    for op in direct.into_iter().chain(sleeps) {
        heap.push(Reverse((op.time, seq, op.id)));
        seq += 1;
    }
    let mut fired = Vec::new();
    while let Some(Reverse((t, _, id))) = heap.pop() {
        fired.push(id);
        if id < CHILD_BASE {
            if let Some((delta, cid)) = ops[id as usize].child {
                heap.push(Reverse((t + delta, seq, cid)));
                seq += 1;
            }
        }
    }
    fired
}

struct SimRun {
    fired: Vec<u32>,
    stops: Vec<StopReason>,
}

/// Runs `ops` on the real kernel. `event_limit` chunks the run: the sim
/// is re-run until idle, splitting same-instant batches at arbitrary
/// points and forcing the reinsertion path. Stops early (without
/// resuming) on halt.
fn sim_order(ops: &[Op], event_limit: Option<u64>) -> SimRun {
    let sim = Sim::with_capacity(ops.len() / 4);
    let ring_before = sim.scheduler_stats().ring_buckets;
    let fired: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));

    // One dispatcher for every hook event: an op id runs the op, a child
    // id is only recorded.
    let hook = Rc::new(std::cell::OnceCell::new());
    let act: Rc<Act> = {
        let fired = Rc::clone(&fired);
        let hook = Rc::clone(&hook);
        Rc::new(move |sim: &Sim, op: Op| {
            fired.borrow_mut().push(op.id);
            if let Some((delta, cid)) = op.child {
                let at = sim.now() + SimDelta::from_nanos(delta);
                if (op.id / 7).is_multiple_of(2) {
                    let hook = *hook.get().expect("registered below");
                    sim.schedule_hook(at, hook, u64::from(cid));
                } else {
                    let fired = Rc::clone(&fired);
                    sim.schedule(at, move |_| fired.borrow_mut().push(cid));
                }
            }
            if op.halts {
                sim.halt();
            }
        })
    };
    let dispatch = sim.register_hook({
        let (act, fired, ops) = (Rc::clone(&act), Rc::clone(&fired), ops.to_vec());
        move |sim, token| {
            let id = (token & !WIDE_BIT) as u32;
            match ops.get(id as usize) {
                Some(&op) => act(sim, op),
                None => fired.borrow_mut().push(id),
            }
        }
    });
    hook.set(dispatch).expect("set once");

    for op in ops.iter().copied() {
        let act = Rc::clone(&act);
        let at = SimTime::from_nanos(op.time);
        let token = u64::from(op.id);
        match op.kind {
            Kind::Call => sim.schedule(at, move |sim| act(sim, op)),
            Kind::Hook => sim.schedule_hook(at, dispatch, token),
            Kind::WideHook => sim.schedule_hook(at, dispatch, WIDE_BIT | token),
            Kind::Sleep => {
                let task_sim = sim.clone();
                sim.spawn(async move {
                    task_sim.sleep_until(at).await;
                    act(&task_sim, op);
                });
            }
        }
    }

    sim.set_event_limit(event_limit);
    let mut stops = Vec::new();
    loop {
        let report = sim.run();
        stops.push(report.stop_reason);
        match report.stop_reason {
            StopReason::EventLimit => continue,
            _ => break,
        }
    }
    assert_eq!(
        sim.scheduler_stats().ring_buckets,
        ring_before,
        "the ring bucket array must never grow"
    );
    let fired = fired.borrow().clone();
    SimRun { fired, stops }
}

#[test]
fn wheel_matches_heap_order_on_random_workloads() {
    for seed in [0x9E3779B97F4A7C15u64, 42, 0xDEADBEEF, 7_777_777] {
        let ops = build_ops(seed, 500, false);
        let expect = reference_order(&ops);
        let run = sim_order(&ops, None);
        assert_eq!(run.stops, vec![StopReason::Idle], "seed {seed:#x}");
        assert_eq!(run.fired, expect, "seed {seed:#x}");
    }
}

#[test]
fn event_limit_chunking_preserves_the_exact_order() {
    // Tiny limits force stops *inside* same-instant batches; the unfired
    // remainder is reinserted and must come back in the same order.
    for (seed, limit) in [(1u64, 1u64), (2, 3), (3, 7), (0xABCDEF, 13)] {
        let ops = build_ops(seed, 300, false);
        let expect = reference_order(&ops);
        let run = sim_order(&ops, Some(limit));
        assert_eq!(run.stops.last(), Some(&StopReason::Idle), "seed {seed:#x}");
        assert!(run.stops.len() > 1, "limit {limit} must actually chunk");
        assert_eq!(run.fired, expect, "seed {seed:#x} limit {limit}");
    }
}

#[test]
fn halt_stops_on_a_prefix_of_the_reference_order() {
    for seed in [11u64, 0xFEED_F00D, 31_337] {
        let ops = build_ops(seed, 400, true);
        let expect = reference_order(&ops);
        let run = sim_order(&ops, None);
        assert_eq!(run.stops, vec![StopReason::Halted], "seed {seed:#x}");
        assert!(
            run.fired.len() <= expect.len(),
            "halt cannot fire extra events"
        );
        assert_eq!(
            run.fired,
            expect[..run.fired.len()],
            "seed {seed:#x}: a halted run is a prefix of the full order"
        );
        // The halting op fired last: halt takes effect before the next
        // event, even one at the same instant.
        let halter = ops.iter().find(|o| o.halts).expect("one op halts");
        assert_eq!(*run.fired.last().expect("halter fired"), halter.id);
    }
}

#[test]
fn one_bucket_of_many_instants_with_promoted_ties_keeps_the_order() {
    for (seed, limit) in [(5u64, None), (6, Some(3u64)), (0xC0FFEE, Some(17))] {
        let ops = one_bucket_ops(seed, 400);
        let expect = reference_order(&ops);
        let run = sim_order(&ops, limit);
        assert_eq!(run.stops.last(), Some(&StopReason::Idle), "seed {seed:#x}");
        assert_eq!(run.fired, expect, "seed {seed:#x} limit {limit:?}");
    }
}
