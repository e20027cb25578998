//! Fixture: every arm of the `panic-in-library` rule fires.

pub fn unwrap_site(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn expect_site(v: Option<u32>) -> u32 {
    v.expect("present")
}

pub fn panic_site() {
    panic!("boom");
}

pub fn unreachable_site() {
    unreachable!();
}

pub fn todo_site() {
    todo!()
}

pub fn unimplemented_site() {
    unimplemented!()
}

pub fn assert_sites(a: u32, b: u32) {
    assert!(a > 0);
    assert_eq!(a, b);
    assert_ne!(a, 0);
}

/// Compiled out of release builds, so never an outage: must not fire.
pub fn debug_assert_sites(a: u32, b: u32) {
    debug_assert!(a > 0);
    debug_assert_eq!(a, b);
    debug_assert_ne!(a, 0);
}
