//! A hierarchical calendar (bucket) event queue keyed on simulated time.
//!
//! The simulation's event population clusters tightly around "now":
//! Poisson candidate chains arrive seconds apart and task finishes land
//! minutes out, while only a thin tail (recurring job arrivals, long-tail
//! lognormal tasks) sits hours ahead. A global `BinaryHeap` pays
//! O(log n) on the *whole* queue for every operation; at fleet scale the
//! queue holds hundreds of thousands of events and every push/pop walks a
//! ~20-deep heap. This queue is the classic two-level calendar:
//!
//! * a **ring of fine slots** (default 8192 slots × 1 s) covering the
//!   near future — pushes into the ring are O(1) appends;
//! * a **current-slot heap** holding only the events of the slot being
//!   drained — push/pop cost is O(log b) in the *slot occupancy* `b`,
//!   which stays small because a slot is one second wide;
//! * an **overflow heap** for events beyond the ring horizon, migrated
//!   lazily as the calendar advances past their slot.
//!
//! The geometry is **self-adapting**: the ring grows when the queued
//! population exceeds a couple of events per slot, and on every rebuild
//! the slot width is re-estimated from the data as a multiple of the
//! mean gap between the soonest queued events (Brown's rule) — so
//! clustered populations (hundreds of thousands of task finishes within
//! an hour) keep near-O(1) operations instead of degenerating into one
//! big current-slot heap. Rebuilds are amortized (geometric growth on
//! the push side, an operation-count guard on the pop side) and only
//! move entries between containers; they never touch the `(bits, seq)`
//! keys.
//!
//! Events pop in exactly `(time, push order)` order — the same total
//! order as a `BinaryHeap` over `(f64::to_bits(time), seq)` — which is
//! what lets the rewritten engine agree bit-for-bit with
//! `engine::reference`. Time keys are compared as integer bit patterns
//! (`f64::to_bits` is order-preserving for non-negative finite floats),
//! so no `f64` comparison sits on the pop path.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Default number of fine slots in the ring.
const DEFAULT_SLOTS: usize = 8192;

/// Default slot width in simulated seconds.
const DEFAULT_WIDTH_S: f64 = 1.0;

/// Ring growth cap: 2²⁰ slots ≈ 24 MB of bucket headers. Beyond this the
/// queue stops adapting and accepts deeper slots.
const MAX_SLOTS: usize = 1 << 20;

/// Grow the ring once the queued population averages more than this many
/// events per slot.
const GROW_LEN_PER_SLOT: usize = 2;

/// Re-estimate the width once a drained slot holds this many events —
/// the population clusters much tighter than the current width. A
/// converged width targets ~3 events per slot, so 32 is far outside
/// Poisson fluctuation and only genuine clustering re-triggers.
const DENSE_SLOT: usize = 32;

/// Head-sample size for width estimation (Brown's rule: width tracks the
/// observed gap between the soonest events, where draining happens).
const WIDTH_SAMPLE: usize = 64;

/// Width floor: a microsecond of simulated time.
const MIN_WIDTH_S: f64 = 1e-6;

/// One queued event: an integer time key, a push-order tiebreak, and the
/// caller's payload. Ordering ignores the payload.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    bits: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits.cmp(&other.bits).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The calendar queue. `T` is the event payload type.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Ring of fine slots; slot `s` lives at index `s % slots.len()`.
    slots: Vec<Vec<Entry<T>>>,
    /// Events of the slot currently being drained (absolute slot
    /// `cur_slot`), plus any late arrivals for already-passed slots.
    cur: BinaryHeap<Reverse<Entry<T>>>,
    /// Events past the ring horizon, ordered; migrated lazily.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Absolute index of the slot being drained.
    cur_slot: u64,
    /// Events currently stored in ring slots (not `cur`, not overflow).
    ring_len: usize,
    /// Total queued events.
    len: usize,
    /// Monotone push counter: the FIFO tiebreak among equal times.
    seq: u64,
    /// Slot width in seconds.
    width_s: f64,
    /// Operations since the last rebuild; amortizes adaptation so a
    /// rebuild's O(n) cost is paid at most once per n queue operations.
    ops: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// A queue with the default geometry (8192 slots × 1 s — a ~2.3 h
    /// near-future window).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_WIDTH_S, DEFAULT_SLOTS)
    }

    /// A queue with an explicit slot width (seconds) and slot count.
    /// Nonsensical geometry (non-finite or non-positive width, zero
    /// slots) falls back to the defaults.
    fn with_geometry(width_s: f64, n_slots: usize) -> Self {
        let (width_s, n_slots) = if width_s.is_finite() && width_s > 0.0 && n_slots > 0 {
            (width_s, n_slots)
        } else {
            (DEFAULT_WIDTH_S, DEFAULT_SLOTS)
        };
        let mut slots = Vec::new();
        slots.resize_with(n_slots, Vec::new);
        CalendarQueue {
            slots,
            cur: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            ring_len: 0,
            len: 0,
            seq: 0,
            width_s,
            ops: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute slot index of a time key, saturating for non-finite or
    /// enormous times (which then sort to the very end, as their bit
    /// patterns already do).
    fn slot_of(&self, bits: u64) -> u64 {
        let t = f64::from_bits(bits);
        if t.is_finite() && t >= 0.0 {
            (t / self.width_s) as u64
        } else {
            u64::MAX
        }
    }

    /// Queues `payload` at simulated time `time_s`. Events at equal
    /// times pop in push order.
    pub fn push(&mut self, time_s: f64, payload: T) {
        self.seq += 1;
        let entry = Entry {
            bits: time_s.to_bits(),
            seq: self.seq,
            payload,
        };
        self.len += 1;
        self.ops += 1;
        self.insert(entry);
        // Adapt: grow the ring when the population outruns it, picking
        // the width that matches the observed head density. Growth is
        // geometric, so these rebuilds total O(n) over any run.
        if self.len > GROW_LEN_PER_SLOT * self.slots.len() && self.slots.len() < MAX_SLOTS {
            let n = (self.slots.len().saturating_mul(4)).min(MAX_SLOTS);
            self.rebuild_sampled(n);
        }
    }

    /// Routes one entry to the current-slot heap, the ring, or overflow.
    /// Pure storage placement: `len`/`seq` are managed by the callers.
    fn insert(&mut self, entry: Entry<T>) {
        let slot = self.slot_of(entry.bits);
        if slot <= self.cur_slot {
            self.cur.push(Reverse(entry));
        } else if slot < self.cur_slot.saturating_add(self.slots.len() as u64) {
            let idx = (slot % self.slots.len() as u64) as usize;
            if let Some(bucket) = self.slots.get_mut(idx) {
                bucket.push(entry);
                self.ring_len += 1;
            } else {
                // Unreachable by construction (idx < slots.len()); keep
                // the event rather than lose it.
                self.cur.push(Reverse(entry));
            }
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Re-distributes every queued event into a ring of `n_slots` slots
    /// whose width is estimated from the data: three times the mean gap
    /// between the `WIDTH_SAMPLE` soonest events (Brown's rule), so the
    /// slots ahead of the drain point hold a few events each regardless
    /// of how tightly the population clusters. Pop order is untouched:
    /// it is fully determined by the `(bits, seq)` keys, which
    /// rebuilding never changes. `cur_slot` is re-anchored at the
    /// earliest pending event, so nothing due lands beyond it.
    fn rebuild_sampled(&mut self, n_slots: usize) {
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for bucket in &mut self.slots {
            all.append(bucket);
        }
        all.extend(self.cur.drain().map(|Reverse(e)| e));
        all.extend(self.overflow.drain().map(|Reverse(e)| e));

        let mut width_s = self.width_s;
        let k = WIDTH_SAMPLE.min(all.len().saturating_sub(1));
        if k >= 2 {
            // `bits` orders like time for non-negative finite floats, so
            // selecting the k-th smallest key brackets the head window.
            let mut keys: Vec<u64> = all.iter().map(|e| e.bits).collect();
            let (head, kth, _) = keys.select_nth_unstable(k);
            let lo = f64::from_bits(head.iter().copied().min().unwrap_or(*kth));
            let hi = f64::from_bits(*kth);
            if lo.is_finite() && hi.is_finite() && hi > lo {
                width_s = (3.0 * (hi - lo) / k as f64).max(MIN_WIDTH_S);
            }
        }

        self.slots.clear();
        self.slots.resize_with(n_slots, Vec::new);
        self.width_s = width_s;
        self.ring_len = 0;
        self.ops = 0;
        let min_bits = all.iter().map(|e| e.bits).min();
        self.cur_slot = min_bits.map_or(0, |b| self.slot_of(b));
        for e in all {
            self.insert(e);
        }
    }

    /// Moves every overflow event due at or before `cur_slot` into the
    /// current-slot heap.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(top)) = self.overflow.peek() {
            if self.slot_of(top.bits) > self.cur_slot {
                break;
            }
            if let Some(Reverse(e)) = self.overflow.pop() {
                self.cur.push(Reverse(e));
            }
        }
    }

    /// Removes and returns the earliest event as `(time_s, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.ops += 1;
        loop {
            if let Some(Reverse(e)) = self.cur.pop() {
                self.len -= 1;
                return Some((f64::from_bits(e.bits), e.payload));
            }
            if self.ring_len == 0 {
                // Ring dry: jump straight to the next overflow slot.
                let Reverse(top) = self.overflow.peek()?;
                self.cur_slot = self.slot_of(top.bits);
                self.migrate_overflow();
                continue;
            }
            // Advance one slot: drain its bucket into the heap, then
            // pick up any overflow events that have come due.
            self.cur_slot = self.cur_slot.saturating_add(1);
            let idx = (self.cur_slot % self.slots.len() as u64) as usize;
            let mut drained = 0;
            if let Some(bucket) = self.slots.get_mut(idx) {
                drained = bucket.len();
                self.ring_len -= drained;
                for e in bucket.drain(..) {
                    self.cur.push(Reverse(e));
                }
            }
            self.migrate_overflow();
            // Adapt: a dense slot means event times cluster well below
            // the slot width. Re-estimate the width from the data — but
            // only after enough operations to amortize the O(n) rebuild,
            // so a persistently dense population cannot thrash it.
            if drained >= DENSE_SLOT && self.ops > self.len && self.width_s > MIN_WIDTH_S {
                let n = self.slots.len();
                self.rebuild_sampled(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model check: any push/pop interleaving matches a plain
    /// `BinaryHeap` over `(bits, seq)`.
    fn check_against_heap(times: &[f64]) {
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for (i, &t) in times.iter().enumerate() {
            cal.push(t, i);
            heap.push(Reverse((t.to_bits(), i as u64 + 1)));
        }
        assert_eq!(cal.len(), times.len());
        let mut last = f64::NEG_INFINITY;
        while let Some(Reverse((bits, seq))) = heap.pop() {
            let (t, payload) = cal.pop().expect("calendar has as many events");
            assert_eq!(t.to_bits(), bits);
            assert_eq!(payload as u64 + 1, seq);
            assert!(t >= last);
            last = t;
        }
        assert!(cal.pop().is_none());
        assert!(cal.is_empty());
    }

    #[test]
    fn matches_heap_on_clustered_times() {
        // The simulation's shape: most events within seconds of each
        // other, a few far out.
        let mut times = Vec::new();
        let mut x = 1u64;
        for i in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let near = (x >> 40) as f64 / 65536.0 * 120.0; // 0..120 s
            times.push(near + (i % 7) as f64 * 0.25);
        }
        times.push(86_400.0); // a day out — overflow
        times.push(86_400.0); // equal-time FIFO pair
        times.push(600_000.0);
        check_against_heap(&times);
    }

    #[test]
    fn matches_heap_on_uniform_wide_range() {
        let mut times = Vec::new();
        let mut x = 9u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            times.push((x >> 20) as f64 / 1e6); // 0 .. ~1.7e7 s
        }
        check_against_heap(&times);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut cal = CalendarQueue::new();
        cal.push(10.0, 'a');
        cal.push(5.0, 'b');
        assert_eq!(cal.pop(), Some((5.0, 'b')));
        // Push while mid-drain, including into the current slot.
        cal.push(5.2, 'c');
        cal.push(100_000.0, 'd'); // overflow
        cal.push(7.0, 'e');
        assert_eq!(cal.pop(), Some((5.2, 'c')));
        assert_eq!(cal.pop(), Some((7.0, 'e')));
        assert_eq!(cal.pop(), Some((10.0, 'a')));
        // Jump across the dry ring to the overflow event.
        assert_eq!(cal.pop(), Some((100_000.0, 'd')));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut cal = CalendarQueue::new();
        for i in 0..50 {
            cal.push(42.0, i);
        }
        for i in 0..50 {
            assert_eq!(cal.pop(), Some((42.0, i)));
        }
    }

    #[test]
    fn overflow_migrates_while_ring_stays_busy() {
        // An overflow event must not be overtaken by a later ring event
        // once the calendar advances into its slot.
        let mut cal = CalendarQueue::with_geometry(1.0, 16);
        cal.push(20.0, 'o'); // beyond the 16-slot horizon → overflow
        for i in 0..30 {
            cal.push(i as f64, (b'0' + (i % 10) as u8) as char);
        }
        let mut popped = Vec::new();
        while let Some((t, p)) = cal.pop() {
            popped.push((t, p));
        }
        let times: Vec<f64> = popped.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(times, sorted, "pop order must be time order");
        assert_eq!(popped.iter().filter(|(_, p)| *p == 'o').count(), 1);
    }

    #[test]
    fn degenerate_geometry_falls_back() {
        let mut cal = CalendarQueue::with_geometry(f64::NAN, 0);
        cal.push(1.0, ());
        assert_eq!(cal.pop(), Some((1.0, ())));
    }

    #[test]
    fn non_finite_times_sort_last() {
        let mut cal = CalendarQueue::new();
        cal.push(f64::INFINITY, 'i');
        cal.push(3.0, 'a');
        assert_eq!(cal.pop(), Some((3.0, 'a')));
        assert_eq!(cal.pop(), Some((f64::INFINITY, 'i')));
    }
}
