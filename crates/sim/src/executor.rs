//! The discrete-event simulation kernel and its async task executor.
//!
//! A [`Sim`] owns a virtual clock, a time-ordered event queue, and a set of
//! cooperatively scheduled async tasks. Tasks model the simulated processors:
//! they run in zero virtual time between `await` points and advance the clock
//! only by awaiting [`Sim::delay`] / [`Sim::sleep_until`] or by blocking on
//! a [`crate::Notify`].
//!
//! The executor is strictly single-threaded and deterministic: ties in the
//! event queue are broken by insertion sequence number, and the ready list is
//! FIFO, so the same program produces the same virtual-time trace on every
//! run.
//!
//! # Hot-path architecture
//!
//! Three structures carry the per-event cost:
//!
//! * the **timer wheel** ([`crate::wheel`]) orders pending timers and hands
//!   the run loop *batches* — every timer at one instant under a single
//!   `Inner` borrow. A batch carries the events themselves, not keys into
//!   a side table: a wheel entry's third word names a registered
//!   [`Sim::register_hook`] dispatcher and its token, or the task a
//!   [`Sleep`] belongs to, so the two event kinds a cluster run fires by
//!   the million touch the wheel and nothing else.
//! * the **action slab** holds what does not fit a word: boxed closures
//!   ([`Sim::schedule`]), foreign `Waker`s (a [`Sleep`] polled outside a
//!   task, or through a combinator that wraps the task's waker), and hook
//!   events whose id or token is too wide to pack. A scheduled timer
//!   always fires — there is no cancellation — so a slot is written once,
//!   named by exactly one wheel entry, and taken once. `seq` is one global
//!   counter, so which of the two routes an event takes never shows in
//!   the firing order.
//! * the **wake log** ([`crate::ready`]) is an atomic append-only log
//!   drained into a plain `Vec`, one ready bit per task. It carries every
//!   wake that goes through a `Waker` — [`crate::Notify`], [`JoinHandle`],
//!   [`yield_now`], the initial wake of [`Sim::spawn`] — and every
//!   [`Sim::wake_task`], and is empty at
//!   every fire point, because the run loop drains it before a batch and
//!   between two events of one. That is what lets a task's own sleep timer
//!   skip it: the run loop polls the task right at the fire point, which
//!   is the poll the wake → log → drain round trip would have produced.
//!
//! # Examples
//!
//! ```
//! use nowlab_sim::{Sim, SimDelta};
//!
//! let sim = Sim::new();
//! let handle = sim.spawn({
//!     let sim = sim.clone();
//!     async move {
//!         sim.delay(SimDelta::from_micros(5.0)).await;
//!         sim.now()
//!     }
//! });
//! sim.run();
//! assert_eq!(handle.try_take().unwrap().as_nanos(), 5_000);
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::ready::{ReadyQueue, TaskId, TaskWaker};
use crate::time::{SimDelta, SimTime};
use crate::wheel::{Fire, SchedulerStats, TimerEntry, TimerWheel};

type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;
type HookFn = Box<dyn Fn(&Sim, u64)>;

/// Why [`Sim::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// No runnable tasks and no pending events remain.
    Idle,
    /// The configured event-count budget was exhausted (see
    /// [`Sim::set_event_limit`]). Used to detect livelock.
    EventLimit,
    /// The next event lies beyond the configured virtual-time horizon (see
    /// [`Sim::set_time_limit`]).
    TimeLimit,
    /// A task or callback requested an orderly stop (see [`Sim::halt`]) —
    /// e.g. a failure detector escalating an unrecoverable peer death.
    Halted,
}

/// Summary of one [`Sim::run`] invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
    /// Total events fired (timer expirations and scheduled callbacks).
    pub events_fired: u64,
    /// Total task polls performed.
    pub polls: u64,
    /// Number of spawned tasks that have not completed.
    pub unfinished_tasks: usize,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Events that fired at the same virtual instant as their predecessor
    /// and therefore relied on the registration-sequence tiebreaker for
    /// their order. Counted only by the event-order audit of debug
    /// builds; `0` in release builds.
    pub simultaneous_events: u64,
}

enum TimerAction {
    /// A sleeping task's own timer: the run loop polls the task at the
    /// fire point. Only ever decoded from a wheel entry, never parked in
    /// the slab.
    WakeTask(TaskId),
    /// A [`Sleep`] registered with a waker that is not the polling task's
    /// own.
    Wake(Waker),
    Call(Box<dyn FnOnce(&Sim)>),
    /// Inline dispatch through a registered hook (see
    /// [`Sim::register_hook`]).
    Hook {
        hook: u32,
        token: u64,
    },
}

/// Identifier of a hook registered with [`Sim::register_hook`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HookId(u32);

/// A spawned task, as [`Sim::current_task`] names it for
/// [`Sim::wake_task`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TaskRef(TaskId);

/// One spawned task plus its reusable waker. The waker is created once at
/// spawn instead of once per poll: `Waker::from(Arc<TaskWaker>)` costs an
/// allocation, and tasks in a message-heavy simulation are polled many
/// thousands of times. The raw shim is kept alongside so the executor can
/// clear the ready bit before polling. Boxed, so that taking the slot out
/// of the task table for a poll and putting it back moves one pointer.
struct TaskSlot {
    fut: BoxedTask,
    waker: Waker,
    shim: Arc<TaskWaker>,
}

struct Inner {
    wheel: TimerWheel,
    /// Slab of pending timer actions, indexed by [`Fire::Slab`]; `None`
    /// marks a free slot.
    slab: Vec<Option<TimerAction>>,
    /// Recyclable slab slots (free list).
    free_slots: Vec<u32>,
    tasks: Vec<Option<Box<TaskSlot>>>,
    /// A second handle on each task's waker, which a [`Sleep`] compares
    /// its context against (the first is out of the table, inside the
    /// slot, while the task is polled).
    wakers: Vec<Waker>,
    /// And each task's waker shim, which [`Sim::wake_task`] enqueues
    /// without a call through the waker's vtable.
    shims: Vec<Arc<TaskWaker>>,
    live_tasks: usize,
    seq: u64,
    order_violations: u64,
}

impl Inner {
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Stores `action` in the slab, reusing a freed slot when available.
    fn alloc_slot(&mut self, action: TimerAction) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(action);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("timer slab overflow");
                self.slab.push(Some(action));
                slot
            }
        }
    }

    /// Takes a slab-backed entry's action at its fire point and frees the
    /// slot.
    ///
    /// The slot cannot be empty ("fired twice"): `push_slab` is the only
    /// writer and hands the slot number to exactly one wheel entry, the
    /// wheel yields each entry once (a reinserted entry was not fired),
    /// and the slot joins the free list only here, after its one entry
    /// has been consumed.
    fn claim(&mut self, slot: u32) -> TimerAction {
        let action = self.slab[slot as usize]
            .take()
            .expect("slab slot fired twice");
        self.free_slots.push(slot);
        action
    }
}

/// Handle to a deterministic discrete-event simulation.
///
/// `Sim` is a cheap reference-counted handle; clone it freely into tasks.
/// See the crate documentation for an overview and example.
#[derive(Clone)]
pub struct Sim {
    /// All engine state behind one `Rc`. `Sim` is cloned on every hot-path
    /// construction of a `Sleep`/`Notify` future, so the handle must cost a
    /// single refcount bump — not one per field. (An earlier layout kept ten
    /// separate `Rc` fields; profiling showed `delay()` paying ~20 refcount
    /// operations per call just creating and dropping its `Sleep`.)
    shared: Rc<Shared>,
}

/// The single shared allocation behind every [`Sim`] handle.
struct Shared {
    now: Cell<SimTime>,
    /// Deadline of the earliest pending timer — a cached copy of the wheel
    /// minimum so the run loop's limit checks read a `Cell` instead of
    /// borrowing and scanning the wheel. Only a lower bound after a batch
    /// (see [`Sim::run`]); the run loop re-checks after extraction.
    next_deadline: Cell<Option<SimTime>>,
    /// Run budgets live in `Cell`s (not `Inner`) so the hot loop reads
    /// them without a `RefCell` borrow; callbacks may change them mid-run.
    event_limit: Cell<Option<u64>>,
    time_limit: Cell<Option<SimTime>>,
    /// Orderly-stop request flag (see [`Sim::halt`]).
    halted: Cell<bool>,
    /// Event-density sampling boundary: the run loop compares the next
    /// event's time against this `Cell` and nothing else, so the feature
    /// costs one compare when disabled (`SimTime::MAX`). Sampling is
    /// passive — it schedules no events and cannot perturb the run.
    sample_boundary: Cell<SimTime>,
    samples: RefCell<SampleState>,
    /// Timers scheduled but not yet fired ([`Sim::pending_timers`]). A
    /// `Cell`, so firing a packed event updates it without an `Inner`
    /// borrow.
    live_timers: Cell<usize>,
    /// The task being polled right now, if any: how a [`Sleep`] knows
    /// whose timer it is arming.
    polling: Cell<Option<TaskId>>,
    /// Registered hook dispatchers, indexed by [`HookId`]. Append-only,
    /// and borrowed shared for the length of a dispatch.
    hooks: RefCell<Vec<HookFn>>,
    inner: RefCell<Inner>,
    ready: Arc<ReadyQueue>,
}

/// State of the passive event-density sampler (see
/// [`Sim::enable_event_sampling`]).
#[derive(Default)]
struct SampleState {
    /// Window length in nanoseconds (0 = disabled).
    window: u64,
    /// Events counted at the last window flush.
    last_events: u64,
    /// Events fired per completed window.
    counts: Vec<u64>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.shared.now.get())
            .finish()
    }
}

impl Sim {
    /// Creates an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty simulation pre-sized for roughly `tasks` spawned
    /// tasks (one per simulated processor, typically): the task table,
    /// wake log, timer wheel, and action slab reserve space up front so
    /// cluster construction does not grow them incrementally.
    pub fn with_capacity(tasks: usize) -> Self {
        // Each processor task usually keeps a few timers in flight
        // (delays, retransmit timers, NIC gap pacing).
        let timers = tasks.saturating_mul(4);
        Sim {
            shared: Rc::new(Shared {
                now: Cell::new(SimTime::ZERO),
                next_deadline: Cell::new(None),
                event_limit: Cell::new(None),
                time_limit: Cell::new(None),
                halted: Cell::new(false),
                sample_boundary: Cell::new(SimTime::MAX),
                samples: RefCell::new(SampleState::default()),
                live_timers: Cell::new(0),
                polling: Cell::new(None),
                hooks: RefCell::new(Vec::new()),
                inner: RefCell::new(Inner {
                    wheel: TimerWheel::with_capacity(timers),
                    slab: Vec::with_capacity(timers),
                    free_slots: Vec::with_capacity(timers),
                    tasks: Vec::with_capacity(tasks),
                    wakers: Vec::with_capacity(tasks),
                    shims: Vec::with_capacity(tasks),
                    live_tasks: 0,
                    seq: 0,
                    order_violations: 0,
                }),
                ready: ReadyQueue::with_capacity(tasks),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now.get()
    }

    /// Number of timers waiting in the scheduler queue — how much future
    /// the event wheel is holding right now. An O(1) observability probe
    /// for tracing/metrics; reading it cannot disturb event order.
    pub fn pending_timers(&self) -> usize {
        self.shared.live_timers.get()
    }

    /// Capacity and occupancy snapshot of the timer wheel: ring size
    /// (fixed at construction), per-bucket allocation, overflow-heap
    /// depth, and entry count. Used by the differential tests to assert
    /// the ring never grows during steady state.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.shared.inner.borrow().wheel.stats()
    }

    /// Caps the total number of events a subsequent [`Sim::run`] may fire.
    ///
    /// Used to bail out of livelocked programs (the paper's Barnes at high
    /// overhead never completes; we stop and report
    /// [`StopReason::EventLimit`]).
    pub fn set_event_limit(&self, limit: Option<u64>) {
        self.shared.event_limit.set(limit);
    }

    /// Caps virtual time: [`Sim::run`] stops before firing any event later
    /// than `limit`.
    pub fn set_time_limit(&self, limit: Option<SimTime>) {
        self.shared.time_limit.set(limit);
    }

    /// Requests an orderly stop: the run loop finishes polling every task
    /// that is ready at the current instant, then returns with
    /// [`StopReason::Halted`] instead of advancing virtual time. Callable
    /// from inside tasks and scheduled callbacks; idempotent. Unlike the
    /// event/time limits this is an *in-simulation* decision (a failure
    /// detector giving up on a dead peer), so the instant it fires at is
    /// itself deterministic.
    pub fn halt(&self) {
        self.shared.halted.set(true);
    }

    /// Starts counting fired events per fixed window of virtual time
    /// (the metrics registry's event-density series). Call immediately
    /// before [`Sim::run`]; any previously collected samples are
    /// discarded. The sampler is passive — it schedules nothing and adds
    /// one `Cell` compare per fired event — so enabling it cannot change
    /// the schedule, the event count, or any simulation result.
    pub fn enable_event_sampling(&self, window: SimDelta) {
        let w = window.as_nanos().max(1);
        *self.shared.samples.borrow_mut() = SampleState {
            window: w,
            last_events: 0,
            counts: Vec::new(),
        };
        self.shared.sample_boundary.set(SimTime::from_nanos(w));
    }

    /// Takes the per-window event counts collected since
    /// [`Sim::enable_event_sampling`] and disables sampling. Only
    /// *completed* windows appear; the caller apportions the residual
    /// (total events minus the returned sum) to the final partial window.
    pub fn take_event_samples(&self) -> Vec<u64> {
        self.shared.sample_boundary.set(SimTime::MAX);
        std::mem::take(&mut self.shared.samples.borrow_mut().counts)
    }

    /// Cold path of the event-density sampler: closes every window older
    /// than `now` (zero-filling skipped ones) and advances the boundary.
    #[cold]
    fn flush_event_samples(&self, now: SimTime, events_so_far: u64) {
        let mut st = self.shared.samples.borrow_mut();
        if st.window == 0 {
            return;
        }
        // All events since the last flush fired before the old boundary,
        // so they belong to the first window being closed.
        let delta = events_so_far.saturating_sub(st.last_events);
        st.counts.push(delta);
        st.last_events = events_so_far;
        let mut boundary = self.shared.sample_boundary.get().as_nanos();
        boundary = boundary.saturating_add(st.window);
        while now.as_nanos() >= boundary {
            st.counts.push(0);
            boundary = boundary.saturating_add(st.window);
        }
        self.shared
            .sample_boundary
            .set(SimTime::from_nanos(boundary));
    }

    /// Event-order race detections accumulated across all [`Sim::run`]
    /// calls on this simulation.
    ///
    /// A violation is two events at the identical virtual instant whose
    /// firing order was *not* resolved by the strictly increasing
    /// registration sequence — i.e. the deterministic tiebreaker failed.
    /// With the wheel's `(time, seq)` batch ordering this is impossible
    /// by construction; the audit exists to catch regressions (a reset
    /// `seq` counter, an alternative queue) the moment they produce a
    /// nondeterministic schedule. Always `0` in release builds, which
    /// leave the audit out.
    pub fn order_violations(&self) -> u64 {
        self.shared.inner.borrow().order_violations
    }

    /// Spawns an async task; it will first be polled by [`Sim::run`].
    ///
    /// Returns a [`JoinHandle`] from which the task's output can be awaited
    /// (inside the simulation) or taken (after `run`).
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waiters: Vec::new(),
        }));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            for w in st.waiters.drain(..) {
                w.wake();
            }
        };
        let shim = {
            let mut inner = self.shared.inner.borrow_mut();
            let id = inner.tasks.len();
            let shim = TaskWaker::new(id, Arc::clone(&self.shared.ready));
            let waker = Waker::from(Arc::clone(&shim));
            inner.wakers.push(waker.clone());
            inner.shims.push(Arc::clone(&shim));
            inner.tasks.push(Some(Box::new(TaskSlot {
                fut: Box::pin(wrapped),
                waker,
                shim: Arc::clone(&shim),
            })));
            inner.live_tasks += 1;
            shim
        };
        // Initial wake: sets the ready bit and appends to the wake log.
        shim.enqueue();
        JoinHandle { state }
    }

    /// Drops every task that has not finished, and with it everything its
    /// future holds. A task's future usually holds a `Sim` handle, so a
    /// task that a run leaves unfinished (a limit, a halt, a body that
    /// never returns) closes a cycle through the task table that nothing
    /// else frees. Call it once the run's results are read: the dropped
    /// tasks can never be resumed, and their join handles stay empty.
    pub fn drop_unfinished_tasks(&self) {
        let tasks: Vec<Box<TaskSlot>> = {
            let mut inner = self.shared.inner.borrow_mut();
            inner.live_tasks = 0;
            inner.tasks.iter_mut().filter_map(Option::take).collect()
        };
        // Dropped after the borrow ends: a future's drop glue may reach
        // back into the simulation.
        drop(tasks);
    }

    /// Schedules `f` to run at virtual time `at` (clamped to now if in the
    /// past). Callbacks run in zero virtual time and receive the `Sim` handle.
    pub fn schedule<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + 'static,
    {
        let at = at.max(self.now());
        self.push_slab(
            &mut self.shared.inner.borrow_mut(),
            at,
            TimerAction::Call(Box::new(f)),
        );
    }

    /// Registers a hook dispatcher and returns its [`HookId`].
    ///
    /// A hook is the allocation-free alternative to [`Sim::schedule`] for
    /// high-rate callers: register the dispatcher once, then
    /// [`Sim::schedule_hook`] events that carry only a `u64` token — the
    /// per-event `Box<dyn FnOnce>` disappears from the hot path. The
    /// dispatcher is retained for the life of the simulation.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a dispatching hook: the table is
    /// borrowed for the length of a dispatch. Register hooks at
    /// construction time, before [`Sim::run`].
    pub fn register_hook<F>(&self, f: F) -> HookId
    where
        F: Fn(&Sim, u64) + 'static,
    {
        let mut hooks = self
            .shared
            .hooks
            .try_borrow_mut()
            .expect("register_hook called from inside a dispatching hook");
        hooks.push(Box::new(f));
        HookId(u32::try_from(hooks.len() - 1).expect("hook table overflow"))
    }

    /// Runs hook number `hook` on `token`, under a shared borrow of the
    /// table (no per-event refcount traffic).
    fn dispatch_hook(&self, hook: u32, token: u64) {
        (self.shared.hooks.borrow()[hook as usize])(self, token);
    }

    /// Schedules the dispatcher registered under `hook` to run at `at`
    /// (clamped to now) with `token`. Event ordering is identical to an
    /// equivalent [`Sim::schedule`] call made at the same point.
    pub fn schedule_hook(&self, at: SimTime, hook: HookId, token: u64) {
        let at = at.max(self.now());
        let hook = hook.0;
        let inner = &mut self.shared.inner.borrow_mut();
        match (Fire::Hook { hook, token }).pack() {
            Some(word) => self.push_packed(inner, at, word),
            None => self.push_slab(inner, at, TimerAction::Hook { hook, token }),
        }
    }

    /// Registers an event that fits a wheel entry whole (`word` is a
    /// packed [`Fire`]): no slab slot, no free list.
    fn push_packed(&self, inner: &mut Inner, time: SimTime, word: u64) {
        let seq = inner.next_seq();
        self.push_entry(inner, TimerEntry { time, seq, word });
    }

    /// Parks `action` in the slab and registers the one wheel entry that
    /// names its slot.
    fn push_slab(&self, inner: &mut Inner, time: SimTime, action: TimerAction) {
        let seq = inner.next_seq();
        let word = Fire::slab_word(inner.alloc_slot(action));
        self.push_entry(inner, TimerEntry { time, seq, word });
    }

    /// Puts a new entry on the wheel, maintaining the live count and the
    /// cached earliest deadline.
    fn push_entry(&self, inner: &mut Inner, e: TimerEntry) {
        inner.wheel.push(e);
        self.shared
            .live_timers
            .set(self.shared.live_timers.get() + 1);
        match self.shared.next_deadline.get() {
            Some(d) if d <= e.time => {}
            _ => self.shared.next_deadline.set(Some(e.time)),
        }
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in<F>(&self, after: SimDelta, f: F)
    where
        F: FnOnce(&Sim) + 'static,
    {
        self.schedule(self.now() + after, f);
    }

    /// Future that completes at virtual time `deadline` (immediately if the
    /// deadline has passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            registered: false,
        }
    }

    /// Future that completes after `delta` of virtual time.
    pub fn delay(&self, delta: SimDelta) -> Sleep {
        self.sleep_until(self.now() + delta)
    }

    /// Arms the timer behind a [`Sleep`]. Polled by a task with that
    /// task's own waker — every `delay().await` in a simulated processor,
    /// `race` included — the timer names the task and the run loop polls
    /// it at the fire point. Polled outside any task, or through a
    /// combinator that substitutes its own waker, it keeps the waker and
    /// wakes through it.
    fn register_sleep(&self, deadline: SimTime, waker: &Waker) {
        let mut inner = self.shared.inner.borrow_mut();
        let own = self
            .own_task(&inner, waker)
            .and_then(|id| Fire::Task(id).pack());
        match own {
            Some(word) => self.push_packed(&mut inner, deadline, word),
            None => self.push_slab(&mut inner, deadline, TimerAction::Wake(waker.clone())),
        }
    }

    /// The task being polled right now, if `waker` is that task's own.
    fn own_task(&self, inner: &Inner, waker: &Waker) -> Option<TaskId> {
        self.shared
            .polling
            .get()
            .filter(|&id| inner.wakers[id].will_wake(waker))
    }

    /// The task being polled right now, if `waker` is its own — the one
    /// the executor put in its `Context`, not one a combinator substituted.
    ///
    /// A wait primitive that remembers this instead of a clone of the
    /// waker wakes the task with [`Sim::wake_task`]: no waker is cloned
    /// when the task registers and none is dropped when it is woken.
    pub(crate) fn current_task(&self, waker: &Waker) -> Option<TaskRef> {
        self.own_task(&self.shared.inner.borrow(), waker)
            .map(TaskRef)
    }

    /// Wakes `task` exactly as its own waker's `wake_by_ref` would: the
    /// task joins the wake log unless it is already in it. A task that
    /// has finished is logged and skipped, as it is through a waker.
    pub(crate) fn wake_task(&self, task: TaskRef) {
        self.shared.inner.borrow().shims[task.0].enqueue();
    }

    fn poll_task(&self, id: TaskId) -> u64 {
        let slot = {
            let mut inner = self.shared.inner.borrow_mut();
            inner.tasks.get_mut(id).and_then(Option::take)
        };
        let Some(mut slot) = slot else { return 0 };
        // Clear the ready bit before polling: a wake arriving *during*
        // the poll must re-enqueue the task for another round.
        slot.shim.clear_queued();
        self.shared.polling.set(Some(id));
        let mut cx = Context::from_waker(&slot.waker);
        let polled = slot.fut.as_mut().poll(&mut cx);
        self.shared.polling.set(None);
        match polled {
            Poll::Ready(()) => {
                self.shared.inner.borrow_mut().live_tasks -= 1;
            }
            Poll::Pending => {
                self.shared.inner.borrow_mut().tasks[id] = Some(slot);
            }
        }
        1
    }

    /// Drains the wake log until no task is ready, polling in strict FIFO
    /// order. Returns polls performed.
    fn drain_ready(&self, buf: &mut Vec<TaskId>) -> u64 {
        let mut polls = 0;
        loop {
            self.shared.ready.drain_into(buf);
            if buf.is_empty() {
                return polls;
            }
            for id in buf.drain(..) {
                polls += self.poll_task(id);
            }
        }
    }

    /// Runs the simulation until no work remains or a limit is hit.
    ///
    /// Determinism: ready tasks are polled FIFO; simultaneous timers fire in
    /// registration order. Timers at one instant are *extracted* as a batch
    /// (one `Inner` borrow) but *fired* with the same interleaving as ever:
    /// after each event the ready list is drained and the halt/event-limit
    /// conditions re-checked, so an early stop mid-batch reinserts the
    /// unfired remainder and leaves the schedule byte-identical to the
    /// one-event-at-a-time kernel.
    pub fn run(&self) -> RunReport {
        let mut events: u64 = 0;
        let mut polls: u64 = 0;
        let mut simultaneous: u64 = 0;
        // Event-order race detector: remembers the (time, seq) of the last
        // fired event so ties at the same virtual instant can be audited.
        let mut last_fired: Option<(SimTime, u64)> = None;
        let mut ready_buf: Vec<TaskId> = Vec::new();
        let mut batch: Vec<TimerEntry> = Vec::new();
        let stop_reason = 'run: loop {
            // Poll every ready task at the current instant.
            polls += self.drain_ready(&mut ready_buf);
            if self.shared.halted.get() {
                break StopReason::Halted;
            }
            if let Some(limit) = self.shared.event_limit.get() {
                if events >= limit {
                    break StopReason::EventLimit;
                }
            }
            // Advance virtual time to the next event. The earliest
            // deadline is cached in a `Cell`, so the empty/over-horizon
            // checks cost no wheel scan and no `RefCell` borrow.
            let Some(next) = self.shared.next_deadline.get() else {
                break StopReason::Idle;
            };
            if let Some(tl) = self.shared.time_limit.get() {
                if next > tl {
                    break StopReason::TimeLimit;
                }
            }
            // Batched same-instant extraction: one `Inner` borrow pulls
            // every timer at the earliest instant, instead of a
            // borrow→pop→release round trip per event.
            let t = {
                let mut inner = self.shared.inner.borrow_mut();
                debug_assert!(batch.is_empty());
                let Some(t) = inner.wheel.take_batch(&mut batch) else {
                    // Not reached: a cached deadline means a non-empty
                    // wheel. Idle is the right answer all the same.
                    self.shared.next_deadline.set(None);
                    break StopReason::Idle;
                };
                // The cached deadline only needs to be a *lower bound*:
                // pushes min-update it, the `t > next` path below
                // re-validates against the time limit, and an exact scan
                // after every batch would cost more than the heap peek
                // this campaign is replacing. `t` itself is the tightest
                // bound available without touching the wheel again.
                self.shared.next_deadline.set(if inner.wheel.is_empty() {
                    None
                } else {
                    Some(t)
                });
                t
            };
            debug_assert!(t >= self.shared.now.get(), "event queue went backwards");
            debug_assert!(t >= next, "cached deadline out of sync");
            if t > next {
                // The cached deadline was a stale lower bound (the
                // previous batch's instant); the batch may lie beyond
                // the time horizon.
                if let Some(tl) = self.shared.time_limit.get() {
                    if t > tl {
                        let mut inner = self.shared.inner.borrow_mut();
                        for e in batch.drain(..) {
                            inner.wheel.push(e);
                        }
                        self.shared.next_deadline.set(inner.wheel.peek_next());
                        break StopReason::TimeLimit;
                    }
                }
            }
            self.shared.now.set(t);
            if t >= self.shared.sample_boundary.get() {
                self.flush_event_samples(t, events);
            }
            // Fire the batch. Extraction was batched; *firing* keeps the
            // historical interleaving: between any two same-instant events
            // the ready list is drained and the stop conditions re-checked,
            // and a slab-backed entry's action stays in the slab until its
            // own fire point, so an early stop can put the entry back.
            let mut fired = 0;
            let early_stop = loop {
                if fired == batch.len() {
                    break None;
                }
                if fired > 0 {
                    polls += self.drain_ready(&mut ready_buf);
                    if self.shared.halted.get() {
                        break Some(StopReason::Halted);
                    }
                    if let Some(limit) = self.shared.event_limit.get() {
                        if events >= limit {
                            break Some(StopReason::EventLimit);
                        }
                    }
                }
                let e = batch[fired];
                fired += 1;
                let action = match Fire::unpack(e.word) {
                    Fire::Task(id) => TimerAction::WakeTask(id),
                    Fire::Hook { hook, token } => TimerAction::Hook { hook, token },
                    Fire::Slab(slot) => self.shared.inner.borrow_mut().claim(slot),
                };
                self.shared
                    .live_timers
                    .set(self.shared.live_timers.get() - 1);
                if cfg!(debug_assertions) {
                    if let Some((lt, ls)) = last_fired {
                        if t == lt {
                            simultaneous += 1;
                            if e.seq <= ls {
                                self.shared.inner.borrow_mut().order_violations += 1;
                                debug_assert!(
                                    false,
                                    "event-order race: two events at {t:?} without a \
                                     deterministic tiebreaker (seq {} fired after {ls})",
                                    e.seq
                                );
                            }
                        }
                    }
                    last_fired = Some((t, e.seq));
                }
                events += 1;
                match action {
                    TimerAction::WakeTask(id) => {
                        // Polling here is the wake → log → drain round
                        // trip cut short, and order-equivalent to it only
                        // because nothing else is waiting in the log.
                        debug_assert!(
                            self.shared.ready.is_empty(),
                            "wake log not drained at a fire point"
                        );
                        polls += self.poll_task(id);
                    }
                    TimerAction::Wake(w) => w.wake(),
                    TimerAction::Call(f) => f(self),
                    TimerAction::Hook { hook, token } => self.dispatch_hook(hook, token),
                }
            };
            if let Some(reason) = early_stop {
                // Unfired same-instant events go back to the wheel with
                // their original sequence numbers (a slab-backed action
                // never left the slab); a resumed run fires them exactly
                // where the uninterrupted run would have.
                let mut inner = self.shared.inner.borrow_mut();
                for e in batch.drain(fired..) {
                    inner.wheel.push(e);
                }
                batch.clear();
                self.shared.next_deadline.set(inner.wheel.peek_next());
                break 'run reason;
            }
            batch.clear();
        };
        RunReport {
            final_time: self.now(),
            events_fired: events,
            polls,
            unfinished_tasks: self.shared.inner.borrow().live_tasks,
            stop_reason,
            simultaneous_events: simultaneous,
        }
    }
}

/// Future returned by [`Sim::sleep_until`] and [`Sim::delay`].
#[derive(Debug)]
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.sim.register_sleep(self.deadline, cx.waker());
            self.registered = true;
        }
        Poll::Pending
    }
}

struct JoinState<T> {
    result: Option<T>,
    waiters: Vec<Waker>,
}

/// Handle to a spawned task's output.
///
/// Await it inside the simulation, or call [`JoinHandle::try_take`] after
/// [`Sim::run`] returns.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let done = self.state.borrow().result.is_some();
        f.debug_struct("JoinHandle")
            .field("finished", &done)
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Takes the task's output if it has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.result.take() {
            Some(v) => Poll::Ready(v),
            None => {
                st.waiters.push(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Races two futures: completes when either completes, returning which one
/// won (ties go to `a`). The loser is dropped.
///
/// The contestants are pinned on the caller's stack (`pin!`), not boxed:
/// `race` sits on the AM layer's timeout path, so the two heap
/// allocations the old boxed implementation paid per call were a
/// measurable share of per-message software cost.
pub async fn race<A, B>(a: A, b: B) -> Either<A::Output, B::Output>
where
    A: Future,
    B: Future,
{
    let mut a = std::pin::pin!(a);
    let mut b = std::pin::pin!(b);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = a.as_mut().poll(cx) {
            return Poll::Ready(Either::A(v));
        }
        if let Poll::Ready(v) = b.as_mut().poll(cx) {
            return Poll::Ready(Either::B(v));
        }
        Poll::Pending
    })
    .await
}

/// Result of [`race`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished first.
    A(A),
    /// The second future finished first.
    B(B),
}

/// Future that yields once, letting other ready tasks run at the same instant.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug, Default)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_advances_clock() {
        let sim = Sim::new();
        let h = sim.spawn({
            let sim = sim.clone();
            async move {
                sim.delay(SimDelta::from_micros_int(7)).await;
                sim.now()
            }
        });
        let report = sim.run();
        assert_eq!(h.try_take().unwrap(), SimTime::from_nanos(7_000));
        assert_eq!(report.stop_reason, StopReason::Idle);
        assert_eq!(report.unfinished_tasks, 0);
    }

    #[test]
    fn event_sampling_counts_every_event_and_changes_nothing() {
        let build = |sample: bool| {
            let sim = Sim::new();
            for i in 0..12u32 {
                // Exponential spacing: several events in the first 100ns
                // window, then sparse with empty windows in between.
                sim.schedule(SimTime::from_nanos(1 << i), |_| {});
            }
            if sample {
                sim.enable_event_sampling(SimDelta::from_nanos(100));
            }
            let report = sim.run();
            (report, sim.take_event_samples())
        };
        let (plain, none) = build(false);
        let (sampled, counts) = build(true);
        assert!(none.is_empty());
        assert_eq!(plain, sampled, "sampling must not perturb the run");
        // Completed windows plus the residual account for every event.
        let residual = sampled.events_fired - counts.iter().sum::<u64>();
        assert!(residual > 0, "last partial window holds the rest");
        // The first window holds the events at 1, 2, ..., 64.
        assert_eq!(counts[0], 7);
        // Windows with no events are zero-filled, e.g. [300, 400).
        assert!(counts.contains(&0), "{counts:?}");
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let log = Rc::clone(&log);
            sim.schedule(SimTime::from_nanos(100), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_interleave_by_time_not_spawn_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let s1 = sim.clone();
        sim.spawn(async move {
            s1.delay(SimDelta::from_nanos(20)).await;
            l1.borrow_mut().push("late");
        });
        let l2 = Rc::clone(&log);
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.delay(SimDelta::from_nanos(10)).await;
            l2.borrow_mut().push("early");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["early", "late"]);
    }

    #[test]
    fn join_handle_awaitable_within_sim() {
        let sim = Sim::new();
        let inner = sim.spawn({
            let sim = sim.clone();
            async move {
                sim.delay(SimDelta::from_nanos(42)).await;
                7u32
            }
        });
        let outer = sim.spawn(async move { inner.await * 2 });
        sim.run();
        assert_eq!(outer.try_take(), Some(14));
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let sim = Sim::new();
        let fired = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&fired);
        sim.schedule_in(SimDelta::from_nanos(10), move |sim| {
            let f3 = Rc::clone(&f2);
            // Schedule "in the past" relative to the new now.
            sim.schedule(SimTime::ZERO, move |sim| {
                assert_eq!(sim.now(), SimTime::from_nanos(10));
                f3.set(true);
            });
        });
        sim.run();
        assert!(fired.get());
    }

    #[test]
    fn event_limit_stops_livelock() {
        let sim = Sim::new();
        sim.set_event_limit(Some(100));
        let s = sim.clone();
        sim.spawn(async move {
            loop {
                s.delay(SimDelta::from_nanos(1)).await;
            }
        });
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::EventLimit);
        assert_eq!(report.unfinished_tasks, 1);
    }

    #[test]
    fn dropping_unfinished_tasks_frees_what_they_hold() {
        let sim = Sim::new();
        sim.set_event_limit(Some(100));
        let held = Rc::new(());
        let weak = Rc::downgrade(&held);
        let s = sim.clone();
        sim.spawn(async move {
            let _held = held;
            loop {
                s.delay(SimDelta::from_nanos(1)).await;
            }
        });
        assert_eq!(sim.run().unfinished_tasks, 1);
        sim.drop_unfinished_tasks();
        assert!(weak.upgrade().is_none(), "the task's future is still live");
        // The task's last timer still fires, and finds nothing to poll.
        sim.set_event_limit(None);
        let report = sim.run();
        assert_eq!(report.unfinished_tasks, 0);
        assert_eq!(report.stop_reason, StopReason::Idle);
    }

    #[test]
    fn event_limit_splits_a_same_instant_batch() {
        // Five timers at one instant with a budget of three: the run must
        // stop mid-batch and a resumed run must fire the remainder in the
        // original registration order.
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let log = Rc::clone(&log);
            sim.schedule(SimTime::from_nanos(100), move |_| log.borrow_mut().push(i));
        }
        sim.set_event_limit(Some(3));
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::EventLimit);
        assert_eq!(report.events_fired, 3);
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
        assert_eq!(sim.pending_timers(), 2);
        sim.set_event_limit(None);
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::Idle);
        assert_eq!(report.events_fired, 2);
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn time_limit_stops_before_horizon() {
        let sim = Sim::new();
        sim.set_time_limit(Some(SimTime::from_nanos(50)));
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.delay(SimDelta::from_nanos(200)).await;
        });
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::TimeLimit);
        assert!(report.final_time <= SimTime::from_nanos(50));
        assert!(h.try_take().is_none());
    }

    #[test]
    fn halt_stops_without_advancing_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.delay(SimDelta::from_nanos(10)).await;
            s.halt();
            // The halt takes effect only once this task yields; later
            // events must never fire.
            s.delay(SimDelta::from_nanos(1000)).await;
            unreachable!("halted simulation advanced time");
        });
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::Halted);
        assert_eq!(report.final_time, SimTime::from_nanos(10));
        assert!(h.try_take().is_none());
    }

    #[test]
    fn yield_now_interleaves_same_instant() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..2u32 {
                    log.borrow_mut().push(i * 10 + round);
                    yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 10, 20, 1, 11, 21]);
    }

    #[test]
    fn order_audit_counts_simultaneous_events_without_violations() {
        let sim = Sim::new();
        for i in 0..4u32 {
            let _ = i;
            sim.schedule(SimTime::from_nanos(100), |_| {});
        }
        sim.schedule(SimTime::from_nanos(200), |_| {});
        let report = sim.run();
        // 4 events share t=100ns: three of them tie with their predecessor
        // — counted only where the audit is compiled in.
        let ties = if cfg!(debug_assertions) { 3 } else { 0 };
        assert_eq!(report.simultaneous_events, ties);
        // The (time, seq) tiebreaker resolves every tie — no races.
        assert_eq!(sim.order_violations(), 0);
    }

    #[test]
    fn run_report_counts_events() {
        let sim = Sim::new();
        for i in 0..4 {
            sim.schedule(SimTime::from_nanos(i), |_| {});
        }
        let report = sim.run();
        assert_eq!(report.events_fired, 4);
        assert_eq!(report.final_time, SimTime::from_nanos(3));
    }

    #[test]
    fn race_returns_first_winner() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let first = race(
                s.delay(SimDelta::from_nanos(10)),
                s.delay(SimDelta::from_nanos(20)),
            )
            .await;
            let second = race(
                s.delay(SimDelta::from_nanos(30)),
                s.delay(SimDelta::from_nanos(5)),
            )
            .await;
            (first, second)
        });
        sim.run();
        let (first, second) = h.try_take().unwrap();
        assert_eq!(first, Either::A(()));
        assert_eq!(second, Either::B(()));
    }

    #[test]
    fn race_ties_go_to_a() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            race(
                s.delay(SimDelta::from_nanos(7)),
                s.delay(SimDelta::from_nanos(7)),
            )
            .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Either::A(()));
    }

    #[test]
    fn race_returns_values() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            match race(
                async {
                    s.delay(SimDelta::from_nanos(1)).await;
                    "fast"
                },
                async { "never-timed" },
            )
            .await
            {
                // The second future is ready immediately, so B wins even
                // though A was listed first: A is only preferred on ties
                // of *readiness at the same poll*.
                Either::A(v) => v,
                Either::B(v) => v,
            }
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), "never-timed");
    }

    #[test]
    fn zero_delay_completes_immediately() {
        let sim = Sim::new();
        let h = sim.spawn({
            let sim = sim.clone();
            async move {
                sim.delay(SimDelta::ZERO).await;
                sim.now()
            }
        });
        sim.run();
        assert_eq!(h.try_take(), Some(SimTime::ZERO));
    }

    #[test]
    fn pending_timers_tracks_the_event_heap() {
        let sim = Sim::new();
        assert_eq!(sim.pending_timers(), 0);
        sim.schedule(SimTime::from_nanos(10), |_| {});
        sim.schedule(SimTime::from_nanos(20), |_| {});
        assert_eq!(sim.pending_timers(), 2);
        // Probing mid-run must also work (and see the undrained tail).
        let sim2 = sim.clone();
        sim.schedule(SimTime::from_nanos(15), move |_| {
            assert_eq!(sim2.pending_timers(), 1, "only the 20ns timer remains");
        });
        sim.run();
        assert_eq!(sim.pending_timers(), 0);
    }

    /// Counts its wakes and passes them on to `next`, if any.
    #[expect(
        clippy::disallowed_types,
        reason = "a Waker must be Send + Sync, so the count is atomic; no second thread wakes it"
    )]
    struct Relay {
        hits: std::sync::atomic::AtomicUsize,
        next: Option<Waker>,
    }

    impl std::task::Wake for Relay {
        fn wake(self: Arc<Self>) {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let Some(next) = &self.next {
                next.wake_by_ref();
            }
        }
    }

    impl Relay {
        fn hits(&self) -> usize {
            self.hits.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn sleep_polled_outside_any_task_wakes_the_waker_it_was_given() {
        let sim = Sim::new();
        let relay = Arc::new(Relay {
            hits: 0.into(),
            next: None,
        });
        let waker = Waker::from(Arc::clone(&relay));
        let mut cx = Context::from_waker(&waker);
        let mut sleep = std::pin::pin!(sim.delay(SimDelta::from_nanos(10)));
        assert!(sleep.as_mut().poll(&mut cx).is_pending());
        assert_eq!(sim.pending_timers(), 1);
        let report = sim.run();
        assert_eq!((report.events_fired, report.polls), (1, 0));
        assert_eq!(relay.hits(), 1);
        assert!(sleep.as_mut().poll(&mut cx).is_ready());
    }

    #[test]
    fn sleep_polled_through_a_wrapping_waker_wakes_that_waker() {
        // A combinator that hands its children a waker of its own (the
        // shape of `FuturesUnordered`): the sleep's timer must go through
        // it, not straight to the task that happens to be polling.
        let sim = Sim::new();
        let relay: Rc<RefCell<Option<Arc<Relay>>>> = Rc::new(RefCell::new(None));
        let h = sim.spawn({
            let (sim, relay) = (sim.clone(), Rc::clone(&relay));
            async move {
                let mut sleep = std::pin::pin!(sim.delay(SimDelta::from_nanos(10)));
                std::future::poll_fn(|cx| {
                    let wrapped = Arc::clone(relay.borrow_mut().get_or_insert_with(|| {
                        Arc::new(Relay {
                            hits: 0.into(),
                            next: Some(cx.waker().clone()),
                        })
                    }));
                    let waker = Waker::from(wrapped);
                    sleep.as_mut().poll(&mut Context::from_waker(&waker))
                })
                .await;
                sim.now()
            }
        });
        let report = sim.run();
        assert_eq!(h.try_take(), Some(SimTime::from_nanos(10)));
        assert_eq!((report.events_fired, report.polls), (1, 2));
        let relay = relay.borrow();
        assert_eq!(relay.as_ref().expect("polled once").hits(), 1);
    }

    #[test]
    #[should_panic(expected = "register_hook called from inside a dispatching hook")]
    fn registering_a_hook_while_dispatching_panics() {
        let sim = Sim::new();
        let outer = sim.register_hook(|sim, _| {
            sim.register_hook(|_, _| {});
        });
        sim.schedule_hook(SimTime::from_nanos(10), outer, 1);
        sim.run();
    }

    #[test]
    fn events_too_wide_to_pack_keep_their_place_among_packed_ones() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        // Hook ids 0..=253 fit the wheel entry next to a 56-bit token.
        let hooks: Vec<HookId> = (0..300u32)
            .map(|i| {
                let log = Rc::clone(&log);
                sim.register_hook(move |_, token| log.borrow_mut().push((i, token)))
            })
            .collect();
        let at = SimTime::from_nanos(50);
        let plan = [
            (0, 1),
            (0, 1 << 56),
            (299, 2),
            (0, u64::MAX),
            (253, (1 << 56) - 1),
            (254, 4),
            (1, 5),
        ];
        for (hook, token) in plan {
            sim.schedule_hook(at, hooks[hook as usize], token);
        }
        let l = Rc::clone(&log);
        sim.schedule(at, move |_| l.borrow_mut().push((u32::MAX, 0)));
        sim.schedule_hook(at, hooks[2], 6);
        assert_eq!(sim.pending_timers(), 9);
        let report = sim.run();
        assert_eq!(report.events_fired, 9);
        let mut expect = plan.to_vec();
        expect.extend([(u32::MAX, 0), (2, 6)]);
        assert_eq!(*log.borrow(), expect);
        assert_eq!(sim.order_violations(), 0);
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    fn a_tasks_own_sleep_is_polled_at_the_fire_point_in_seq_order() {
        // Two tasks and a callback share an instant; the callback wakes a
        // third task through a `Notify`. Order: sleeper A's continuation,
        // the callback, then the notified task (wake log, drained after
        // the callback), then sleeper B — the order of wake → log → drain.
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let gate = Rc::new(crate::Notify::new());
        let at = SimTime::from_nanos(30);
        let sleeper = |name: &'static str| {
            let (sim, log) = (sim.clone(), Rc::clone(&log));
            async move {
                sim.sleep_until(at).await;
                log.borrow_mut().push(name);
            }
        };
        sim.spawn({
            let (gate, log, sim) = (Rc::clone(&gate), Rc::clone(&log), sim.clone());
            async move {
                gate.notified(&sim).await;
                log.borrow_mut().push("notified");
            }
        });
        sim.spawn(sleeper("a"));
        // Polls spawned tasks, registering a's timer, before the callback
        // below is scheduled.
        sim.set_event_limit(Some(0));
        sim.run();
        sim.set_event_limit(None);
        let (g, l) = (Rc::clone(&gate), Rc::clone(&log));
        sim.schedule(at, move |sim| {
            l.borrow_mut().push("callback");
            g.notify_all(sim);
        });
        sim.spawn(sleeper("b"));
        let report = sim.run();
        assert_eq!(*log.borrow(), vec!["a", "callback", "notified", "b"]);
        assert_eq!(report.events_fired, 3);
        assert_eq!(report.unfinished_tasks, 0);
    }

    #[test]
    fn a_task_named_by_current_task_is_woken_by_wake_task() {
        // The waiter parks itself by id; a second task wakes it by id. A
        // foreign waker is not a task's own, so it is not named.
        let sim = Sim::new();
        let parked: Rc<Cell<Option<TaskRef>>> = Rc::new(Cell::new(None));
        let (s, p) = (sim.clone(), Rc::clone(&parked));
        let waiter = sim.spawn(async move {
            let mut polls = 0;
            std::future::poll_fn(|cx| {
                polls += 1;
                if polls > 1 {
                    return Poll::Ready(());
                }
                p.set(s.current_task(cx.waker()));
                Poll::Pending
            })
            .await;
            s.now()
        });
        let (s, p) = (sim.clone(), Rc::clone(&parked));
        sim.spawn(async move {
            s.delay(SimDelta::from_nanos(7)).await;
            let task = p.get().expect("the waiter named itself");
            s.wake_task(task);
            s.wake_task(task); // already in the wake log: no second poll
        });
        let report = sim.run();
        assert_eq!(waiter.try_take().unwrap().as_nanos(), 7);
        // Two initial polls, the sleeper's wake, the waiter's one wake.
        assert_eq!(report.polls, 4);
        let relay = Arc::new(Relay {
            hits: 0.into(),
            next: None,
        });
        assert_eq!(sim.current_task(&Waker::from(relay)), None);
    }

    #[test]
    fn hooks_dispatch_tokens_in_schedule_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let hook = sim.register_hook(move |_, token| l.borrow_mut().push(token));
        // Interleave hook events with boxed callbacks at one instant: the
        // shared seq counter keeps the combined order.
        sim.schedule_hook(SimTime::from_nanos(5), hook, 10);
        let l2 = Rc::clone(&log);
        sim.schedule(SimTime::from_nanos(5), move |_| l2.borrow_mut().push(11));
        sim.schedule_hook(SimTime::from_nanos(5), hook, 12);
        let report = sim.run();
        assert_eq!(*log.borrow(), vec![10, 11, 12]);
        assert_eq!(report.events_fired, 3);
    }
}
