//! A warm round trip allocates nothing, and neither does a warm post.
//!
//! A counting global allocator (allocator *calls*, not bytes, so a grown
//! and shrunk buffer cannot hide) brackets 10 000 short `request`s and then
//! 10 000 `post`s between two processors. A warm-up of the same traffic
//! first grows every table the path uses to its steady size: the message
//! arena, the reply slots, the receive queue and its waiter list, and the
//! kernel's timer wheel and wake log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nowlab_am::{AmCluster, AmPort, HandlerId, Mark, NetConfig, Payload, ReplyData};
use nowlab_sim::Sim;

thread_local! {
    /// Allocator calls made by this thread. Per thread, because the
    /// simulation runs on the test's thread alone while libtest's main
    /// thread allocates at times of its own choosing.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

#[expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait; it forwards to System unchanged"
)]
// SAFETY: both methods hand the caller's layout and pointer to `System`
// unchanged, so `System`'s own contract is the one callers rely on. The
// counter is a `const`-initialised `Cell` without a destructor, so
// touching it allocates nothing. `realloc` and `alloc_zeroed` keep their
// default bodies, which call `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.set(CALLS.get() + 1);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const N: u64 = 10_000;

async fn requests(port: &AmPort, h: HandlerId) {
    for i in 0..N {
        let (args, _) = port
            .request(1, h, [i, 0, 0, 0], Payload::None, Mark::Read)
            .await;
        assert_eq!(args[0], i + 1);
    }
}

async fn posts(port: &AmPort, h: HandlerId) {
    for i in 0..N {
        port.post(1, h, [i, 0, 0, 0], Payload::None, Mark::Write)
            .await;
    }
    port.quiesce().await;
}

#[test]
fn a_warm_round_trip_and_a_warm_post_allocate_nothing() {
    let sim = Sim::new();
    let cluster = AmCluster::new(sim.clone(), NetConfig::berkeley_now(), 2);
    let h = cluster.register_handler(|ctx| ReplyData::word(ctx.msg.args[0] + 1));
    let server = cluster.port(1);
    sim.spawn(async move { server.wait_until(|| false).await });
    let port = cluster.port(0);
    let client = sim.spawn(async move {
        requests(&port, h).await;
        posts(&port, h).await;
        let start = CALLS.get();
        requests(&port, h).await;
        let after_requests = CALLS.get();
        posts(&port, h).await;
        (after_requests - start, CALLS.get() - after_requests)
    });
    sim.run();
    let (request_allocs, post_allocs) = client.try_take().expect("client finished");
    assert_eq!(request_allocs, 0, "allocator calls in {N} warm requests");
    assert_eq!(post_allocs, 0, "allocator calls in {N} warm posts");
    let stats = cluster.stats();
    assert_eq!(
        stats.per_proc[0].sends,
        4 * N,
        "every request and post sent"
    );
}
