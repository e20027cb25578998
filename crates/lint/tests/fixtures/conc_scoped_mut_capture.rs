//! Fixture for `scoped-mut-capture`: a closure handed to `scope.spawn`
//! that mutates captured state races across workers. The sanctioned
//! shapes — closure-local scratch returned through the handle, or a
//! sync wrapper — stay silent.

use std::sync::Mutex;
use std::thread;

/// Positive: every worker pushes into the same captured Vec.
pub fn gather_racy(inputs: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    thread::scope(|s| {
        for chunk in inputs.chunks(2) {
            s.spawn(|| {
                out.push(chunk.iter().sum());
            });
        }
    });
    out
}

/// Positive: a captured accumulator via compound assignment.
pub fn total_racy(inputs: &[f64]) -> f64 {
    let mut total = 0.0;
    thread::scope(|s| {
        for chunk in inputs.chunks(2) {
            s.spawn(|| {
                total += chunk.iter().sum::<f64>();
            });
        }
    });
    total
}

/// Negative: workers mutate only closure-local scratch and return it;
/// the parent merges after `join`.
pub fn gather_local(inputs: &[f64]) -> f64 {
    let mut merged = 0.0;
    thread::scope(|s| {
        let h = s.spawn(|| {
            let mut local = 0.0;
            for v in inputs {
                local += *v;
            }
            local
        });
        merged = h
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    });
    merged
}

/// Negative: a sync wrapper is the sanctioned way to share.
pub fn gather_locked(inputs: &[f64]) -> Vec<f64> {
    let out = Mutex::new(Vec::new());
    thread::scope(|s| {
        for chunk in inputs.chunks(2) {
            s.spawn(|| {
                let mut guard = out.lock().unwrap_or_else(|e| e.into_inner());
                guard.push(chunk.iter().sum());
            });
        }
    });
    out.into_inner().unwrap_or_default()
}
