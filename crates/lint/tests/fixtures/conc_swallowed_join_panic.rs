//! Fixture for `swallowed-join-panic`: a joined worker's `Err` is its
//! panic. A zero-argument `.join()` that discards it drops the panic and
//! that worker's results without an error.

use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};

/// Positive: `if let Ok(..)` has no `Err` arm.
pub fn merge_if_ok(handles: Vec<JoinHandle<Vec<u32>>>) -> Vec<u32> {
    let mut out = Vec::new();
    for h in handles {
        if let Ok(v) = h.join() {
            out.extend(v);
        }
    }
    out
}

/// Positive: `let _ =` discards the whole result.
pub fn wait(h: JoinHandle<()>) {
    let _ = h.join();
}

/// Positive: `.ok()` turns the panic into `None`.
pub fn joined_or_none(h: JoinHandle<u32>) -> Option<u32> {
    h.join().ok()
}

/// Positive: `.is_ok()` keeps one bit of it.
pub fn joined_cleanly(h: JoinHandle<u32>) -> bool {
    h.join().is_ok()
}

/// Positive: `.unwrap_or(..)` replaces the panic with a default.
pub fn joined_or_zero(h: JoinHandle<u32>) -> u32 {
    h.join().unwrap_or(0)
}

/// Positive: `.unwrap_or_default()` does the same.
pub fn joined_or_default(h: JoinHandle<Vec<u32>>) -> Vec<u32> {
    h.join().unwrap_or_default()
}

/// Negative: the `Err` arm re-raises the worker's panic.
pub fn merge_or_resume(handles: Vec<JoinHandle<Vec<u32>>>) -> Vec<u32> {
    let mut out = Vec::new();
    for h in handles {
        match h.join() {
            Ok(v) => out.extend(v),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

/// Negative: `.unwrap_or_else(..)`'s closure sees the payload and
/// re-raises it.
pub fn joined_or_resume(h: JoinHandle<u32>) -> u32 {
    h.join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Negative: the result goes to the caller.
pub fn joined(h: JoinHandle<u32>) -> thread::Result<u32> {
    h.join()
}

/// Negative: string and path `join` calls take an argument.
pub fn joins_with_arguments(parts: &[&str], dir: &Path) -> (String, PathBuf) {
    let _ = parts.join(",");
    (parts.join("/"), dir.join("MANIFEST"))
}
