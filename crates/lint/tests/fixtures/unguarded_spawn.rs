//! Fixture: `unguarded-spawn` fires only when the `JoinHandle` is
//! discarded at statement level.

use std::thread;

pub fn discarded_handle() {
    thread::spawn(|| {});
}

pub fn discarded_handle_std_path() {
    std::thread::spawn(|| {});
}

pub fn bound_handle_is_fine() {
    let handle = thread::spawn(|| {});
    if let Err(payload) = handle.join() {
        std::panic::resume_unwind(payload);
    }
}

pub fn chained_join_is_fine() {
    if let Err(payload) = thread::spawn(|| {}).join() {
        std::panic::resume_unwind(payload);
    }
}
