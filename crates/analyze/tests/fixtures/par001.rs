//! Fixture: a lock primitive below the run boundary — the orchestration
//! layer (crates/core::sweep, src/bin) is the only place threads and
//! locks may live.

fn f() -> u32 {
    let m = std::sync::Mutex::new(7u32);
    let v = *m.lock().unwrap();
    v
}
