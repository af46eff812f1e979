//! Fixture: exactly one lock below the run boundary (PAR001). A
//! simulation is single-threaded, so virtual time cannot depend on host
//! scheduling. scripts/check_moved_lints.sh builds it.

pub fn f() -> u32 {
    let m = std::sync::Mutex::new(7u32);
    let v = *m.lock().expect("no other thread holds it");
    v
}
