//! The kernel's one wait primitive for the single-threaded simulation.
//!
//! It is virtual-time-free: waiting on a [`Notify`] consumes no simulated
//! time by itself (time only advances through [`crate::Sim::delay`] or
//! other timed futures). It exists to express *ordering* between simulated
//! processes.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::executor::TaskRef;
use crate::Sim;

/// An epoch-based notification primitive (a condition variable for tasks).
///
/// Typical use is a condition loop:
///
/// ```
/// use std::rc::Rc;
/// use std::cell::Cell;
/// use nowlab_sim::{Sim, Notify};
///
/// let sim = Sim::new();
/// let flag = Rc::new(Cell::new(false));
/// let notify = Rc::new(Notify::new());
///
/// let (f, n, s) = (Rc::clone(&flag), Rc::clone(&notify), sim.clone());
/// let waiter = sim.spawn(async move {
///     while !f.get() {
///         n.notified(&s).await;
///     }
///     true
/// });
///
/// let (f, n, s) = (flag, notify, sim.clone());
/// sim.spawn(async move {
///     f.set(true);
///     n.notify_all(&s);
/// });
///
/// sim.run();
/// assert_eq!(waiter.try_take(), Some(true));
/// ```
///
/// Wakeups may be spurious from the waiter's perspective (every `notify_all`
/// wakes every waiter), so always re-check the condition.
///
/// The wake list holds task ids: a task polled through its own waker is
/// named by `Sim::current_task` and woken by `Sim::wake_task` (both
/// crate-private), so a wait clones no waker and a wake drops none. A wait polled through a
/// substituted waker (a combinator's, or outside any task) keeps that
/// waker instead.
///
/// A registration outlives the wait that made it: a task that stopped
/// waiting (its `race` was won by another future) stays listed, and the
/// next `notify_all` wakes it spuriously — an extra poll the kernel's poll
/// count includes.
#[derive(Default)]
pub struct Notify {
    epoch: Cell<u64>,
    /// The first registration: the one-waiter case touches no `Vec`.
    first: Cell<Option<Waiter>>,
    /// Every later registration, in order.
    rest: RefCell<Vec<Waiter>>,
}

enum Waiter {
    Task(TaskRef),
    Foreign(Waker),
}

impl Waiter {
    #[inline]
    fn wake(self, sim: &Sim) {
        match self {
            Waiter::Task(task) => sim.wake_task(task),
            Waiter::Foreign(waker) => waker.wake(),
        }
    }
}

impl fmt::Debug for Notify {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.first.take();
        let waiters = usize::from(first.is_some()) + self.rest.borrow().len();
        self.first.set(first);
        f.debug_struct("Notify")
            .field("epoch", &self.epoch.get())
            .field("waiters", &waiters)
            .finish()
    }
}

impl Notify {
    /// Creates a notifier with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes every task currently waiting in [`Notify::notified`], in the
    /// order they registered.
    #[inline]
    pub fn notify_all(&self, sim: &Sim) {
        self.epoch.set(self.epoch.get() + 1);
        let Some(first) = self.first.take() else {
            return;
        };
        first.wake(sim);
        let mut rest = self.rest.borrow_mut();
        if !rest.is_empty() {
            rest.drain(..).for_each(|w| w.wake(sim));
        }
    }

    /// Future that completes at the next [`Notify::notify_all`] issued after
    /// this call; each poll that finds none registers the polling task
    /// again.
    pub fn notified<'a>(&'a self, sim: &'a Sim) -> Notified<'a> {
        Notified {
            notify: self,
            sim,
            start_epoch: self.epoch.get(),
        }
    }

    #[inline]
    fn register(&self, waiter: Waiter) {
        match self.first.take() {
            None => self.first.set(Some(waiter)),
            first => {
                self.first.set(first);
                self.rest.borrow_mut().push(waiter);
            }
        }
    }
}

/// Future returned by [`Notify::notified`].
#[derive(Debug)]
pub struct Notified<'a> {
    notify: &'a Notify,
    sim: &'a Sim,
    start_epoch: u64,
}

impl Future for Notified<'_> {
    type Output = ();

    #[inline]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.notify.epoch.get() > self.start_epoch {
            return Poll::Ready(());
        }
        self.notify
            .register(match self.sim.current_task(cx.waker()) {
                Some(task) => Waiter::Task(task),
                None => Waiter::Foreign(cx.waker().clone()),
            });
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDelta};
    use std::rc::Rc;

    #[test]
    fn notify_wakes_waiter() {
        let sim = Sim::new();
        let n = Rc::new(Notify::new());
        let n2 = Rc::clone(&n);
        let s2 = sim.clone();
        let waiter = sim.spawn(async move {
            n2.notified(&s2).await;
            s2.now()
        });
        let s3 = sim.clone();
        sim.spawn(async move {
            s3.delay(SimDelta::from_nanos(30)).await;
            n.notify_all(&s3);
        });
        sim.run();
        assert_eq!(waiter.try_take().unwrap().as_nanos(), 30);
    }

    #[test]
    fn notify_before_wait_is_not_lost_in_condition_loop() {
        // A notified() created *after* the notify fires must not complete
        // until the next notify; condition loops handle this by re-checking
        // state first.
        let sim = Sim::new();
        let n = Notify::new();
        n.notify_all(&sim);
        // Future created now requires epoch > 1.
        let n = Rc::new(n);
        let (n2, s2) = (Rc::clone(&n), sim.clone());
        let h = sim.spawn(async move {
            n2.notified(&s2).await;
            true
        });
        sim.run();
        assert!(
            h.try_take().is_none(),
            "stale notify must not complete new waiter"
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a Waker must be Send + Sync, so the count is atomic; no second thread wakes it"
    )]
    fn waiters_wake_in_registration_order_named_or_foreign() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        use std::sync::Arc;
        use std::task::Wake;

        struct Count(AtomicUsize);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Relaxed);
            }
        }
        let sim = Sim::new();
        let n = Rc::new(Notify::new());
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let (n, log, s) = (Rc::clone(&n), Rc::clone(&log), sim.clone());
            sim.spawn(async move {
                n.notified(&s).await;
                log.borrow_mut().push(name);
            });
        }
        sim.run();
        // A wait polled outside any task keeps the waker it was given.
        let count = Arc::new(Count(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        let mut cx = Context::from_waker(&waker);
        let mut foreign = Box::pin(n.notified(&sim));
        assert!(foreign.as_mut().poll(&mut cx).is_pending());
        assert_eq!(format!("{n:?}"), "Notify { epoch: 0, waiters: 4 }");
        n.notify_all(&sim);
        assert_eq!(count.0.load(Relaxed), 1);
        assert!(foreign.as_mut().poll(&mut cx).is_ready());
        let report = sim.run();
        assert_eq!(*log.borrow(), ["a", "b", "c"]);
        assert_eq!(report.polls, 3, "one poll per woken task");
        assert_eq!(format!("{n:?}"), "Notify { epoch: 1, waiters: 0 }");
    }
}
