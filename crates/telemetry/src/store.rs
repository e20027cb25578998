//! In-memory telemetry store: columnar, indexed, with incremental re-seal.
//!
//! The production KEA pipeline lands metrics in Cosmos itself and re-reads
//! them daily; our reproduction keeps the observation window addressable
//! in memory while the durable history scales past it. The store is
//! append-only with filtered views — exactly the access pattern of the
//! Performance Monitor — and every module re-reads the same window many
//! times per tuning run, so reads are what must be fast *and* appends
//! must not invalidate the read structures wholesale: the monitor is a
//! continuously running service ingesting per-hour batches.
//!
//! # Layout: N sealed runs + sorted delta
//!
//! The store is an LSM-shaped structure:
//!
//! * The **sealed runs** are immutable `ColumnIndex`es, oldest first:
//!   each is a compacted slice of history, sorted by `(group, hour,
//!   machine)` with interned dense machine ids, CSR offset-range indexes
//!   over groups and hours, one secondary `(hour, machine)` permutation,
//!   and struct-of-arrays metric columns. Every run carries its
//!   inclusive `[min_hour, max_hour]` bounds, so hour-windowed queries
//!   skip runs that cannot contain the window.
//! * The **delta** is the tail of the record log appended since the last
//!   seal. On first query it is sealed into a *mini* `ColumnIndex` of
//!   its own (cost `O(d log d)` for `d` delta rows — small by
//!   construction), cached until the next mutation.
//!
//! Every view ([`by_group`](TelemetryStore::by_group),
//! [`by_hours`](TelemetryStore::by_hours), …) and every fused kernel in
//! [`crate::aggregate`] answers by **k-way merging** the relevant runs
//! plus the delta — sorted sources, one key-ordered merge, no re-sort.
//! When the delta outgrows its threshold (checked once per mutating
//! call) or on an explicit [`seal`](TelemetryStore::seal), it becomes a
//! new sealed run; a *ladder* compaction then merges the newest runs
//! while each is no larger than its elder neighbour — the classic
//! binary-counter schedule, so every record is re-merged `O(log n)`
//! times total and big old runs are left untouched by small fresh ones.
//! Every merge is a linear two-way merge of an adjacent pair.
//!
//! # Durability
//!
//! A store created by [`TelemetryStore::open`] mirrors each sealed run
//! to a segment file under the manifest-flip protocol of
//! [`crate::persist`]. Segment-backed runs load **lazily**: opening a
//! directory validates headers only, a run's body is decoded on the
//! first query that touches it, and [`sync`](TelemetryStore::sync)
//! evicts the coldest decoded runs past a fixed LRU budget of eight.
//! A run whose segment fails validation at load time is quarantined and
//! served as empty; the store remembers the failure ("degraded"),
//! [`verify`](TelemetryStore::verify) and `sync` surface it, and `sync`
//! refuses to rewrite history from a degraded image.
//!
//! The pre-columnar flat-scan implementation survives unchanged as
//! [`reference::TelemetryStore`]: it is the executable specification that
//! the randomized agreement suite (`tests/agreement.rs`) pins the
//! multi-run engine against at every intermediate state of interleaved
//! mutate/query sequences, and the baseline the
//! `telemetry_scan`/`telemetry_stream` benches measure speedups over.

use crate::metric::Metric;
use crate::persist;
use crate::record::{GroupKey, MachineHourRecord, MachineId};
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Delta sizes below this never trigger automatic sealing: indexing a
/// handful of rows per mutation would pay the sort with no read-side
/// benefit.
const MIN_COMPACT_DELTA: usize = 1024;

/// Runs smaller than this are merge targets for the sync-time policy
/// compaction: they cost a manifest entry and a header read each, and
/// merging two of them is cheap by definition.
const MIN_SEGMENT_ROWS: usize = 4096;

/// Cap on decoded segment-backed runs kept resident between syncs.
const SEGMENT_CACHE: usize = 8;

/// One sealed, immutable run of the store.
///
/// Invariants: `rows >= 1` (empty runs are never created); when `seg`
/// is `None` the run exists only in memory and `index` is always
/// resident (there is nothing to reload it from).
#[derive(Debug)]
struct SealedRun {
    /// Row count (also recorded in the manifest once persisted).
    rows: usize,
    /// Inclusive `[min_hour, max_hour]` covered by the run.
    bounds: (u64, u64),
    /// Segment file name once persisted by a sync; `None` while dirty.
    seg: Option<String>,
    /// Decoded index; for segment-backed runs, loaded lazily on first
    /// touch and evictable at `&mut self` points.
    index: OnceLock<ColumnIndex>,
    /// LRU stamp from the store's touch clock (Relaxed is enough: the
    /// stamp only orders evictions, never gates an observable read).
    touch: AtomicU64,
}

impl SealedRun {
    /// A run born in memory from `index`; `None` when `index` is empty
    /// (empty runs are never created).
    fn dirty(index: ColumnIndex) -> Option<SealedRun> {
        let bounds = index.hours.first().copied().zip(index.hours.last().copied())?;
        let rows = index.sorted.len();
        let cell = OnceLock::new();
        let _ = cell.set(index);
        Some(SealedRun { rows, bounds, seg: None, index: cell, touch: AtomicU64::new(0) })
    }
}

/// Append-only store of machine-hour records: N sealed columnar runs
/// plus a small delta buffer for streaming appends.
#[derive(Debug)]
pub struct TelemetryStore {
    /// Sealed runs, oldest first.
    runs: Vec<SealedRun>,
    /// Insertion-order delta tail appended since the last seal.
    tail: Vec<MachineHourRecord>,
    /// Lazily built mini-index over the delta tail, invalidated by every
    /// mutation.
    delta: OnceLock<ColumnIndex>,
    /// Attachment to an on-disk store directory, present only for stores
    /// created by [`TelemetryStore::open`]. In-memory stores (the
    /// default) carry `None` and reject [`TelemetryStore::sync`].
    backing: Option<persist::Backing>,
    /// First segment-load failure observed by a query, if any. Queries
    /// cannot return `Result` (they are infallible on in-memory
    /// stores), so a lazy load that fails parks its diagnosis here,
    /// serves the run as empty, and [`TelemetryStore::verify`] /
    /// [`TelemetryStore::sync`] surface it.
    degraded: Mutex<Option<(PathBuf, String)>>,
    /// Monotonic clock behind the per-run LRU touch stamps.
    touch_clock: AtomicU64,
}

impl Default for TelemetryStore {
    fn default() -> Self {
        TelemetryStore {
            runs: Vec::new(),
            tail: Vec::new(),
            delta: OnceLock::new(),
            backing: None,
            degraded: Mutex::new(None),
            touch_clock: AtomicU64::new(0),
        }
    }
}

impl Clone for TelemetryStore {
    /// Clones the in-memory state only. A clone of a durable store is
    /// *detached*: it holds the same records but no file handles, so
    /// mutating the clone never races the original's directory and
    /// `sync()` on the clone reports [`persist::PersistError::NotDurable`].
    /// Cloning forces lazy runs resident; runs a degraded original
    /// serves as empty are dropped from the clone (which is then
    /// internally consistent and not degraded).
    fn clone(&self) -> Self {
        let runs = self
            .runs
            .iter()
            .filter_map(|r| SealedRun::dirty(self.run_side(r).clone()))
            .collect();
        TelemetryStore {
            runs,
            tail: self.tail.clone(),
            delta: self.delta.clone(),
            backing: None,
            degraded: Mutex::new(None),
            touch_clock: AtomicU64::new(0),
        }
    }
}

/// The sealed columnar layout. Built by [`ColumnIndex::build`] (sort) or
/// [`ColumnIndex::merge`] (linear compaction of two sorted runs);
/// immutable afterwards. All `Vec<usize>` offset tables follow the CSR
/// convention: `offsets.len() == keys.len() + 1` and key `i` owns rows
/// `offsets[i]..offsets[i + 1]`.
//
// kea-lint: allow-file(index-in-library) — dense index kernel: every row
// position is produced by this module's own sort/merge/partition passes and
// every offset table is constructed with the CSR invariant checked in tests.
#[derive(Debug, Clone)]
pub(crate) struct ColumnIndex {
    /// All records sorted by `(group, hour, machine)`.
    pub(crate) sorted: Vec<MachineHourRecord>,
    /// Distinct groups, ascending.
    pub(crate) groups: Vec<GroupKey>,
    /// CSR offsets into `sorted` per group.
    pub(crate) group_offsets: Vec<usize>,
    /// Distinct machines, ascending. A machine's position here is its
    /// *dense id*.
    pub(crate) machines: Vec<MachineId>,
    /// Dense machine id of each row of `sorted`.
    pub(crate) machine_dense: Vec<u32>,
    /// Distinct hours, ascending.
    pub(crate) hours: Vec<u64>,
    /// Row positions of `sorted`, re-ordered by `(hour, machine)`.
    pub(crate) hour_order: Vec<usize>,
    /// CSR offsets into `hour_order` per distinct hour.
    pub(crate) hour_offsets: Vec<usize>,
    /// Struct-of-arrays metric columns in `sorted` row order:
    /// `columns[m.index()][row] == m.value(&sorted[row].metrics)`.
    pub(crate) columns: Vec<Vec<f64>>,
}

/// The empty index — the stand-in side wherever view code wants a
/// uniform merge shape or a degraded run must serve something.
pub(crate) fn empty_index() -> &'static ColumnIndex {
    static EMPTY: OnceLock<ColumnIndex> = OnceLock::new();
    EMPTY.get_or_init(|| ColumnIndex::build(&[]))
}

impl ColumnIndex {
    /// Sorts and interns `records` into the columnar layout.
    pub(crate) fn build(records: &[MachineHourRecord]) -> Self {
        let mut sorted = records.to_vec();
        sorted.sort_unstable_by_key(|r| (r.group, r.hour, r.machine));
        Self::from_sorted(sorted)
    }

    /// Builds the index structures over records already sorted by
    /// `(group, hour, machine)` — the shared tail of [`ColumnIndex::build`]
    /// and the merge fallback paths.
    fn from_sorted(sorted: Vec<MachineHourRecord>) -> Self {
        let n = sorted.len();

        // Group runs → CSR offsets (sorted is group-major).
        let (groups, group_offsets) = group_runs(&sorted);

        // Machine interning: distinct sorted ids, then a dense id per row.
        let mut machines: Vec<MachineId> = sorted.iter().map(|r| r.machine).collect();
        machines.sort_unstable();
        machines.dedup();
        let machine_dense: Vec<u32> = sorted
            .iter()
            .map(|r| {
                // Every row's machine is in `machines` by construction,
                // and dense ids fit u32 because MachineId wraps a u32.
                machines.partition_point(|m| *m < r.machine) as u32
            })
            .collect();

        // Secondary ordering by (hour, machine): a permutation of row
        // positions into `sorted`, so the heavy record payload is stored
        // exactly once.
        let mut hour_order: Vec<usize> = (0..n).collect();
        hour_order.sort_unstable_by_key(|&row| (sorted[row].hour, sorted[row].machine));
        let (hours, hour_offsets) = hour_runs(&sorted, &hour_order);

        // Struct-of-arrays metric columns, derived ratios included.
        let mut columns = vec![Vec::with_capacity(n); Metric::ALL.len()];
        for r in &sorted {
            let row = Metric::row_of(&r.metrics);
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }

        ColumnIndex {
            sorted,
            groups,
            group_offsets,
            machines,
            machine_dense,
            hours,
            hour_order,
            hour_offsets,
            columns,
        }
    }

    /// Rebuilds an index from the three core tables a segment file
    /// persists, re-deriving every other table and validating the
    /// structural invariants the query paths rely on. Returns `None` on
    /// any violation — a segment that decodes byte-exactly but encodes
    /// an inconsistent index (hand-edited, or written by a buggy
    /// future version) must be rejected, not queried.
    ///
    /// Persisting only `sorted`, `machines`, and the hour permutation
    /// keeps segments near-dump-speed to write while the O(n) rebuild
    /// here stays far cheaper than the O(n log n) sorts that dominate
    /// [`ColumnIndex::build`].
    pub(crate) fn from_persisted(
        sorted: Vec<MachineHourRecord>,
        machines: Vec<MachineId>,
        hour_order: Vec<usize>,
    ) -> Option<Self> {
        let n = sorted.len();
        let key = |r: &MachineHourRecord| (r.group, r.hour, r.machine);
        if !sorted.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            return None;
        }
        // The machine list must be the exact distinct set: strictly
        // ascending, and every row's machine resolvable to a dense id.
        if !machines.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let mut machine_dense = Vec::with_capacity(n);
        for r in &sorted {
            let dense = machines.partition_point(|m| *m < r.machine);
            if machines.get(dense) != Some(&r.machine) {
                return None;
            }
            machine_dense.push(dense as u32);
        }
        // No phantom machines: every interned id is referenced by a row.
        let mut machine_seen = vec![false; machines.len()];
        for &d in &machine_dense {
            if let Some(slot) = machine_seen.get_mut(d as usize) {
                *slot = true;
            }
        }
        if !machine_seen.iter().all(|&s| s) {
            return None;
        }

        // The hour ordering must be a true permutation of row positions,
        // sorted by `(hour, machine)`.
        if hour_order.len() != n {
            return None;
        }
        let mut seen = vec![false; n];
        for &row in &hour_order {
            match seen.get_mut(row) {
                Some(slot) if !*slot => *slot = true,
                _ => return None,
            }
        }
        if !hour_order
            .windows(2)
            .all(|w| (sorted[w[0]].hour, sorted[w[0]].machine) <= (sorted[w[1]].hour, sorted[w[1]].machine))
        {
            return None;
        }

        // Past validation the derivations mirror `from_sorted`.
        let (groups, group_offsets) = group_runs(&sorted);
        let (hours, hour_offsets) = hour_runs(&sorted, &hour_order);
        let mut columns = vec![Vec::with_capacity(n); Metric::ALL.len()];
        for r in &sorted {
            let row = Metric::row_of(&r.metrics);
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }

        Some(ColumnIndex {
            sorted,
            groups,
            group_offsets,
            machines,
            machine_dense,
            hours,
            hour_order,
            hour_offsets,
            columns,
        })
    }

    /// Compacts two sealed indexes into one in `O(n + d)`: every table is
    /// produced by a linear two-way merge of the already-sorted inputs —
    /// no re-sort of the combined row set. `a` rows win ties, so merging
    /// an older run with a newer one keeps arrival order among duplicate
    /// `(group, hour, machine)` keys.
    pub(crate) fn merge(a: &ColumnIndex, b: &ColumnIndex) -> ColumnIndex {
        if a.sorted.is_empty() {
            return b.clone();
        }
        if b.sorted.is_empty() {
            return a.clone();
        }
        let (an, bn) = (a.sorted.len(), b.sorted.len());
        let n = an + bn;

        // Primary merge by (group, hour, machine): records, plus the
        // source of every output row so columns and the permutation can
        // be gathered without re-comparing.
        let key = |r: &MachineHourRecord| (r.group, r.hour, r.machine);
        let mut sorted = Vec::with_capacity(n);
        // from_b[out] says which side output row `out` came from;
        // a_to_out/b_to_out map each side's row to its output position.
        let mut from_b = Vec::with_capacity(n);
        let mut a_to_out = vec![0usize; an];
        let mut b_to_out = vec![0usize; bn];
        let (mut i, mut j) = (0usize, 0usize);
        while i < an || j < bn {
            let take_a = j >= bn || (i < an && key(&a.sorted[i]) <= key(&b.sorted[j]));
            if take_a {
                a_to_out[i] = sorted.len();
                sorted.push(a.sorted[i]);
                i += 1;
            } else {
                b_to_out[j] = sorted.len();
                sorted.push(b.sorted[j]);
                j += 1;
            }
            from_b.push(!take_a);
        }

        let (groups, group_offsets) = group_runs(&sorted);

        // Machine space: merge-dedup the two distinct lists, then remap
        // each side's dense ids into the merged space.
        let machines = merge_dedup(&a.machines, &b.machines);
        let a_remap = remap_into(&a.machines, &machines);
        let b_remap = remap_into(&b.machines, &machines);
        let mut machine_dense = Vec::with_capacity(n);
        let (mut i, mut j) = (0usize, 0usize);
        for &fb in &from_b {
            if fb {
                machine_dense.push(b_remap[b.machine_dense[j] as usize]);
                j += 1;
            } else {
                machine_dense.push(a_remap[a.machine_dense[i] as usize]);
                i += 1;
            }
        }

        // Metric columns: gather in output order, one side cursor each.
        let mut columns = Vec::with_capacity(Metric::ALL.len());
        for (ac, bc) in a.columns.iter().zip(&b.columns) {
            let mut col = Vec::with_capacity(n);
            let (mut i, mut j) = (0usize, 0usize);
            for &fb in &from_b {
                if fb {
                    col.push(bc[j]);
                    j += 1;
                } else {
                    col.push(ac[i]);
                    i += 1;
                }
            }
            columns.push(col);
        }

        // Secondary ordering: each side's permutation is already sorted
        // by `(hour, machine)`, so the merged permutation is a two-way
        // merge mapped through the row position maps.
        let hour_order = merge_hour_order(a, b, &a_to_out, &b_to_out);
        let (hours, hour_offsets) = hour_runs(&sorted, &hour_order);

        ColumnIndex {
            sorted,
            groups,
            group_offsets,
            machines,
            machine_dense,
            hours,
            hour_order,
            hour_offsets,
            columns,
        }
    }

    /// Row range of one group in `sorted`, empty when absent.
    pub(crate) fn group_range(&self, group: GroupKey) -> Range<usize> {
        let gi = self.groups.partition_point(|g| *g < group);
        if self.groups.get(gi) == Some(&group) {
            self.group_offsets[gi]..self.group_offsets[gi + 1]
        } else {
            0..0
        }
    }

    /// Position range in `hour_order` covering hours `[start, end)`.
    pub(crate) fn hour_position_range(&self, start: u64, end: u64) -> Range<usize> {
        let lo = self.hours.partition_point(|&h| h < start);
        let hi = self.hours.partition_point(|&h| h < end);
        self.hour_offsets[lo]..self.hour_offsets[hi]
    }

    /// Dense id of `machine`, if present.
    fn dense_machine(&self, machine: MachineId) -> Option<usize> {
        let mi = self.machines.partition_point(|m| *m < machine);
        (self.machines.get(mi) == Some(&machine)).then_some(mi)
    }

    /// One group's records, sorted by `(hour, machine)`.
    pub(crate) fn group_rows(&self, group: GroupKey) -> std::slice::Iter<'_, MachineHourRecord> {
        self.sorted[self.group_range(group)].iter()
    }

    /// Records within `[start, end)` hours, sorted by `(hour, machine)`.
    pub(crate) fn hour_window(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = &MachineHourRecord> {
        self.hour_order[self.hour_position_range(start, end)]
            .iter()
            .map(move |&row| &self.sorted[row])
    }

    /// Records of a machine set within `[start, end)` hours, sorted by
    /// `(hour, machine)`; membership is one dense-id bitmap probe per
    /// candidate row.
    pub(crate) fn machines_hour_window(
        &self,
        machines: &BTreeSet<MachineId>,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = &MachineHourRecord> {
        let bitmap = MachineBitmap::from_set(self, machines);
        self.hour_order[self.hour_position_range(start, end)]
            .iter()
            .filter(move |&&row| bitmap.contains(self.machine_dense[row]))
            .map(move |&row| &self.sorted[row])
    }
}

/// Distinct-group list and CSR offsets of group-major sorted records.
fn group_runs(sorted: &[MachineHourRecord]) -> (Vec<GroupKey>, Vec<usize>) {
    let mut groups = Vec::new();
    let mut offsets = vec![0];
    for (row, r) in sorted.iter().enumerate() {
        if groups.last() != Some(&r.group) {
            if !groups.is_empty() {
                offsets.push(row);
            }
            groups.push(r.group);
        }
    }
    offsets.push(sorted.len());
    if groups.is_empty() {
        offsets = vec![0];
    }
    (groups, offsets)
}

/// Distinct-hour list and CSR offsets of an `(hour, machine)`-ordered
/// row permutation.
fn hour_runs(sorted: &[MachineHourRecord], hour_order: &[usize]) -> (Vec<u64>, Vec<usize>) {
    let mut hours = Vec::new();
    let mut offsets = vec![0];
    for (pos, &row) in hour_order.iter().enumerate() {
        let h = sorted[row].hour;
        if hours.last() != Some(&h) {
            if !hours.is_empty() {
                offsets.push(pos);
            }
            hours.push(h);
        }
    }
    offsets.push(hour_order.len());
    if hours.is_empty() {
        offsets = vec![0];
    }
    (hours, offsets)
}

/// Merge two sorted, deduplicated key lists into one.
pub(crate) fn merge_dedup<T: Copy + Ord>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    if x == y {
                        j += 1;
                    }
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        out.push(next);
    }
    out
}

/// For each element of sorted `sub` (a subset of sorted `all`), its
/// position in `all` — the dense-id remap table of a merge.
pub(crate) fn remap_into(sub: &[MachineId], all: &[MachineId]) -> Vec<u32> {
    let mut out = Vec::with_capacity(sub.len());
    let mut pos = 0usize;
    for &m in sub {
        while all.get(pos).is_some_and(|&x| x < m) {
            pos += 1;
        }
        out.push(pos as u32);
    }
    out
}

/// Merge the two sides' `(hour, machine)` permutations into one over
/// the merged row space: compare on each side's own records, map
/// through the row position maps. `a` wins ties (older before newer).
fn merge_hour_order(
    a: &ColumnIndex,
    b: &ColumnIndex,
    a_to_out: &[usize],
    b_to_out: &[usize],
) -> Vec<usize> {
    let key = |idx: &ColumnIndex, row: usize| (idx.sorted[row].hour, idx.sorted[row].machine);
    let (a_order, b_order) = (&a.hour_order, &b.hour_order);
    let mut out = Vec::with_capacity(a_order.len() + b_order.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a_order.len() || j < b_order.len() {
        let take_a = j >= b_order.len()
            || (i < a_order.len() && key(a, a_order[i]) <= key(b, b_order[j]));
        if take_a {
            out.push(a_to_out[a_order[i]]);
            i += 1;
        } else {
            out.push(b_to_out[b_order[j]]);
            j += 1;
        }
    }
    out
}

/// Key-ordered k-way merge of per-side views, each sorted by
/// `(hour, machine)`. The earliest side wins ties, so passing sides
/// oldest-run-first (delta last) keeps arrival order among duplicate
/// keys — the same contract the two-run store upheld.
fn merge_k_by_hour_machine<'a, I>(sides: Vec<I>) -> impl Iterator<Item = &'a MachineHourRecord>
where
    I: Iterator<Item = &'a MachineHourRecord> + 'a,
{
    let mut sides: Vec<std::iter::Peekable<I>> =
        sides.into_iter().map(|s| s.peekable()).collect();
    std::iter::from_fn(move || {
        let mut best: Option<(usize, (u64, MachineId))> = None;
        for (i, side) in sides.iter_mut().enumerate() {
            if let Some(r) = side.peek() {
                let k = (r.hour, r.machine);
                if best.as_ref().is_none_or(|&(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        let (i, _) = best?;
        sides.get_mut(i)?.next()
    })
}

/// A set-membership bitmap over dense machine ids — the probe structure
/// behind [`TelemetryStore::by_machines_and_hours`]. One bit per distinct
/// machine in the window, so a 64k-machine fleet fits in 8 KiB.
struct MachineBitmap {
    words: Vec<u64>,
}

impl MachineBitmap {
    fn from_set(index: &ColumnIndex, machines: &BTreeSet<MachineId>) -> Self {
        let mut words = vec![0u64; index.machines.len().div_ceil(64)];
        for &m in machines {
            if let Some(dense) = index.dense_machine(m) {
                words[dense / 64] |= 1 << (dense % 64);
            }
        }
        MachineBitmap { words }
    }

    #[inline]
    fn contains(&self, dense: u32) -> bool {
        let dense = dense as usize;
        (self.words[dense / 64] >> (dense % 64)) & 1 == 1
    }
}

impl TelemetryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a durable store rooted at directory `dir`, creating it on
    /// first use and recovering its contents otherwise: the manifest
    /// names the live segments with their row counts and hour bounds,
    /// each segment's header is validated (bodies decode lazily on
    /// first query), and the write-ahead log is replayed into the delta
    /// tail, truncating any torn tail a crash left behind. This build
    /// reads only the format it writes: a directory whose manifest
    /// carries an older header is refused before any file is touched.
    /// Corruption surfaces as a typed [`persist::PersistError`] —
    /// recovery never panics.
    ///
    /// Note that recovery restores the *record multiset*, not the
    /// original insertion order: sealed runs come back in
    /// `(group, hour, machine)` order (segments store them pre-sorted),
    /// while the delta tail keeps exact append order. Every view and
    /// kernel is order-insensitive, so query results are unchanged.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self, persist::PersistError> {
        let recovered = persist::recover(dir.as_ref())?;
        let runs = recovered
            .runs
            .into_iter()
            .map(|r| SealedRun {
                rows: r.rows,
                bounds: r.bounds,
                seg: Some(r.name),
                index: OnceLock::new(),
                touch: AtomicU64::new(0),
            })
            .collect();
        Ok(TelemetryStore {
            runs,
            tail: recovered.delta,
            delta: OnceLock::new(),
            backing: Some(recovered.backing),
            ..TelemetryStore::default()
        })
    }

    /// Flushes every record appended since the last `sync` to stable
    /// storage and returns what was written. On the fast path this is
    /// one WAL frame and one fsync; when the run set changed (a seal or
    /// compaction) it spills each *dirty* run as a fresh segment —
    /// unchanged segments are never rewritten — starts a fresh WAL
    /// holding only the delta tail, and atomically flips the manifest.
    /// Runs below `MIN_SEGMENT_ROWS` are first folded into their
    /// neighbours (the sync-time compaction policy), and decoded
    /// segment runs beyond the cache budget are evicted after.
    ///
    /// Records are durable — guaranteed to survive a crash or kill —
    /// only once `sync` returns `Ok`. A failed sync may be retried and
    /// never duplicates records. `push`/`extend`/`seal` never touch
    /// disk. Returns [`persist::PersistError::NotDurable`] on a store
    /// that was not created by [`TelemetryStore::open`], and refuses
    /// (with the original diagnosis) on a store degraded by a corrupt
    /// segment, so a partial in-memory image never overwrites history.
    pub fn sync(&mut self) -> Result<persist::SyncStats, persist::PersistError> {
        if let Some(err) = self.degraded_error() {
            return Err(err);
        }
        if self.backing.is_none() {
            return Err(persist::PersistError::NotDurable);
        }
        self.policy_compact();
        // A policy merge may itself have tripped a lazy load failure.
        if let Some(err) = self.degraded_error() {
            return Err(err);
        }
        let refs: Vec<persist::RunRef<'_>> = self
            .runs
            .iter()
            .map(|r| match (&r.seg, r.index.get()) {
                (Some(name), _) => persist::RunRef::Clean {
                    name,
                    rows: r.rows as u64,
                    bounds: r.bounds,
                },
                (None, Some(index)) => persist::RunRef::Dirty { index },
                // Unreachable by invariant (dirty runs are resident);
                // an empty side is simply skipped by the rotation.
                (None, None) => persist::RunRef::Dirty { index: empty_index() },
            })
            .collect();
        let Some(backing) = self.backing.as_mut() else {
            return Err(persist::PersistError::NotDurable);
        };
        let (stats, assigned) = backing.sync(&refs, &self.tail)?;
        drop(refs);
        for (run, name) in self.runs.iter_mut().zip(assigned) {
            if let Some(name) = name {
                run.seg = Some(name);
            }
        }
        self.evict_cold();
        Ok(stats)
    }

    /// True when this store is attached to a directory and
    /// [`sync`](TelemetryStore::sync) will persist.
    pub fn is_durable(&self) -> bool {
        self.backing.is_some()
    }

    /// The directory backing this store, if durable.
    pub fn storage_dir(&self) -> Option<&std::path::Path> {
        self.backing.as_ref().map(|b| b.dir())
    }

    /// Forces every run resident and reports the first segment-load
    /// failure, if any — the explicit "is my history intact?" check.
    /// Queries on a degraded store serve the surviving runs (the bad
    /// segment is quarantined and its run reads as empty); this is how
    /// a caller distinguishes that state from a clean one.
    pub fn verify(&self) -> Result<(), persist::PersistError> {
        for run in &self.runs {
            let _ = self.run_side(run);
        }
        match self.degraded_error() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Number of sealed runs currently live.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of sealed runs with a decoded index resident in memory —
    /// what hour-bound pruning and the LRU cache actually bound.
    pub fn resident_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.index.get().is_some()).count()
    }

    /// Appends one record into the delta buffer. The sealed runs are
    /// left untouched; only the delta mini-index is invalidated. Seals
    /// when the delta outgrows its threshold. A record carrying a NaN or
    /// infinite metric is dropped, as in [`extend`](TelemetryStore::extend);
    /// returns whether the record was kept.
    pub fn push(&mut self, record: MachineHourRecord) -> bool {
        self.extend(std::iter::once(record)) == 0
    }

    /// Appends many records as one batch: the seal threshold is checked
    /// once per call, so a bulk load seals at most once.
    ///
    /// Every ingest path (`push`, `extend`, `merge`) applies the
    /// non-finite validation CSV ingest applies (see [`crate::csv`]), in
    /// every build profile: records carrying a NaN or infinite metric are
    /// dropped and counted, so a poisoned producer (e.g. a lognormal
    /// sampler overflowing to `inf` under a degenerate calibration) can
    /// never surface later as NaN aggregates. Returns the number of
    /// records dropped (zero for any healthy producer).
    pub fn extend(&mut self, records: impl IntoIterator<Item = MachineHourRecord>) -> usize {
        self.delta.take();
        let mut dropped = 0usize;
        for record in records {
            if record.metrics.is_finite() {
                self.tail.push(record);
            } else {
                dropped += 1;
            }
        }
        self.maybe_compact();
        dropped
    }

    /// Alias of [`extend`](TelemetryStore::extend), kept because keabench
    /// calls it by this name.
    pub fn extend_validated(
        &mut self,
        records: impl IntoIterator<Item = MachineHourRecord>,
    ) -> usize {
        self.extend(records)
    }

    /// Merges another store into this one (e.g. combining experiment and
    /// control windows collected separately). Routed through the same
    /// batch append — and therefore the same non-finite validation — as
    /// [`extend`](TelemetryStore::extend); returns the number of records
    /// dropped. A durable `other`'s sealed runs are loaded from its
    /// segments the way queries load them; if that degrades `other`,
    /// this store inherits the diagnosis, so
    /// [`verify`](TelemetryStore::verify) reports it.
    pub fn merge(&mut self, other: TelemetryStore) -> usize {
        let mut dropped = 0;
        for run in &other.runs {
            dropped += self.extend(other.run_side(run).sorted.iter().copied());
        }
        if let Some(err) = other.degraded_error() {
            self.note_degraded(&err);
        }
        dropped + self.extend(other.tail)
    }

    /// Reserves capacity for at least `additional` more records, so a
    /// streaming ingest loop that knows its batch size can avoid
    /// reallocating the record log mid-append.
    pub fn reserve(&mut self, additional: usize) {
        self.tail.reserve(additional);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.rows).sum::<usize>() + self.tail.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.tail.is_empty()
    }

    /// Seals the delta into a new run now, then ladder-compacts. A
    /// no-op when the delta is empty. Queries never require this — they
    /// k-way merge runs + delta on the fly — so calling it only moves
    /// the indexing cost to a chosen point (e.g. right after a
    /// simulation flush, before a timed analysis path).
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            self.seal_tail();
        }
    }

    /// True when every record is sealed into a run (no append since the
    /// last seal).
    pub fn is_sealed(&self) -> bool {
        self.tail.is_empty()
    }

    /// Number of records currently sitting in the delta buffer.
    pub fn delta_len(&self) -> usize {
        self.tail.len()
    }

    /// Seals when the delta exceeds its floor — large enough that the
    /// `O(d log d)` index build amortizes, small enough that query-time
    /// merges stay narrow. Sealing is in-memory only; the ladder bounds
    /// how many runs accumulate.
    fn maybe_compact(&mut self) {
        if self.tail.len() > MIN_COMPACT_DELTA {
            self.seal_tail();
        }
    }

    /// Turns the delta into a new sealed run (reusing a query-built
    /// mini-index when present) and restores the ladder invariant.
    fn seal_tail(&mut self) {
        let delta = self
            .delta
            .take()
            .unwrap_or_else(|| ColumnIndex::build(&self.tail));
        self.tail.clear();
        let Some(run) = SealedRun::dirty(delta) else {
            return; // Empty delta: nothing to seal.
        };
        self.runs.push(run);
        self.ladder_compact();
    }

    /// Binary-counter compaction: merge the two newest runs while the
    /// elder of the pair is no larger than the newcomer. Each record is
    /// re-merged `O(log n)` times over the store's lifetime, and a
    /// large old run is only rewritten when the history behind it has
    /// grown to its own size.
    fn ladder_compact(&mut self) {
        while self.runs.len() >= 2 {
            let at = self.runs.len() - 2;
            if self.runs[at].rows > self.runs[at + 1].rows {
                break;
            }
            self.merge_pair(at);
        }
    }

    /// Sync-time policy: fold adjacent pairs of undersized runs so the
    /// manifest never accumulates confetti segments. Only pairs where
    /// *both* runs are below the floor merge here — rewriting a large
    /// clean segment to absorb a small one would break the bounded
    /// write-amplification guarantee (that rewrite is what the ladder
    /// schedules logarithmically).
    fn policy_compact(&mut self) {
        loop {
            let pair = (0..self.runs.len().saturating_sub(1)).find(|&i| {
                self.runs[i].rows < MIN_SEGMENT_ROWS && self.runs[i + 1].rows < MIN_SEGMENT_ROWS
            });
            match pair {
                Some(at) => self.merge_pair(at),
                None => break,
            }
        }
    }

    /// Replaces the adjacent runs `at` and `at + 1` with their two-way
    /// merge (a dirty run), preserving order; a no-op unless both exist.
    /// Rebuilds the vector without panic-capable splicing.
    fn merge_pair(&mut self, at: usize) {
        let merged = match (self.runs.get(at), self.runs.get(at + 1)) {
            (Some(elder), Some(newer)) => {
                ColumnIndex::merge(self.run_side(elder), self.run_side(newer))
            }
            _ => return,
        };
        let mut merged = SealedRun::dirty(merged);
        let old = std::mem::take(&mut self.runs);
        for (i, run) in old.into_iter().enumerate() {
            if i == at {
                self.runs.extend(merged.take());
            } else if i != at + 1 {
                self.runs.push(run);
            }
        }
    }

    /// The decoded index of one run, loading it from its segment on
    /// first touch and stamping the LRU clock. A load failure marks the
    /// store degraded and serves the run as empty — queries stay
    /// infallible; [`TelemetryStore::verify`] surfaces the diagnosis.
    fn run_side<'a>(&'a self, run: &'a SealedRun) -> &'a ColumnIndex {
        run.touch.store(
            self.touch_clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        run.index.get_or_init(|| {
            let loaded = match (&self.backing, &run.seg) {
                (Some(backing), Some(name)) => {
                    match persist::segment::load_segment(
                        backing.dir(),
                        name,
                        run.rows as u64,
                        run.bounds,
                    ) {
                        Ok(index) => Some(index),
                        Err(err) => {
                            self.note_degraded(&err);
                            None
                        }
                    }
                }
                // Unreachable by invariant (a run without a segment is
                // always resident); serve empty rather than panic.
                _ => None,
            };
            loaded.unwrap_or_else(|| empty_index().clone())
        })
    }

    /// Records the first load failure; later ones keep the original
    /// diagnosis (the first corruption found is the actionable one).
    fn note_degraded(&self, err: &persist::PersistError) {
        let mut slot = self.degraded.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            let (path, reason) = match err {
                persist::PersistError::Corrupt { path, reason } => (path.clone(), reason.clone()),
                persist::PersistError::Io { op, path, source } => {
                    (path.clone(), format!("{op}: {source}"))
                }
                other => (PathBuf::new(), other.to_string()),
            };
            *slot = Some((path, reason));
        }
    }

    /// The sticky degradation, reconstructed as a typed error.
    /// (`PersistError` holds an `io::Error` and is not `Clone`; the
    /// stored diagnosis is re-wrapped on each read.)
    fn degraded_error(&self) -> Option<persist::PersistError> {
        self.degraded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|(path, reason)| persist::PersistError::Corrupt {
                path: path.clone(),
                reason: reason.clone(),
            })
    }

    /// Evicts the coldest decoded segment-backed runs down to the cache
    /// budget. Dirty runs are exempt (they are the only copy). Touch
    /// stamps are collected then sorted — never compared in-place as a
    /// gate — so Relaxed ordering is sufficient.
    fn evict_cold(&mut self) {
        let mut resident: Vec<(u64, usize)> = self
            .runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.seg.is_some() && r.index.get().is_some())
            .map(|(i, r)| (r.touch.load(Ordering::Relaxed), i))
            .collect();
        if resident.len() <= SEGMENT_CACHE {
            return;
        }
        resident.sort_unstable();
        let over = resident.len() - SEGMENT_CACHE;
        for &(_, i) in resident.iter().take(over) {
            if let Some(run) = self.runs.get_mut(i) {
                run.index.take();
            }
        }
    }

    /// The delta mini-index, built on first use per mutation generation;
    /// `None` when the store is fully sealed.
    pub(crate) fn delta_index(&self) -> Option<&ColumnIndex> {
        if self.tail.is_empty() {
            return None;
        }
        Some(self.delta.get_or_init(|| ColumnIndex::build(&self.tail)))
    }

    /// Every sorted side of the store, oldest run first, delta last —
    /// the merge inputs of the unwindowed views and kernels.
    pub(crate) fn sides(&self) -> Vec<&ColumnIndex> {
        let mut out: Vec<&ColumnIndex> = self.runs.iter().map(|r| self.run_side(r)).collect();
        if let Some(delta) = self.delta_index() {
            out.push(delta);
        }
        out
    }

    /// The sides that can contain hours `[start, end)`: runs whose
    /// recorded `[min_hour, max_hour]` intersects the window (others
    /// are skipped *without decoding their segments* — the pruning this
    /// store exists for), plus the delta. Oldest first, delta last.
    pub(crate) fn window_sides(&self, start: u64, end: u64) -> Vec<&ColumnIndex> {
        let mut out: Vec<&ColumnIndex> = Vec::with_capacity(self.runs.len() + 1);
        if end > start {
            for r in &self.runs {
                if r.bounds.0 < end && r.bounds.1 >= start {
                    out.push(self.run_side(r));
                }
            }
        }
        if let Some(delta) = self.delta_index() {
            out.push(delta);
        }
        out
    }

    /// All records: each sealed run's rows (oldest run first, each in
    /// its sorted order), then the delta tail in insertion order. On a
    /// never-sealed store this is exactly insertion order; once runs
    /// exist the global insertion order is no longer recorded (views
    /// and kernels are order-insensitive; see
    /// [`TelemetryStore::open`]).
    pub fn iter(&self) -> impl Iterator<Item = &MachineHourRecord> {
        self.runs
            .iter()
            .flat_map(move |r| self.run_side(r).sorted.iter())
            .chain(self.tail.iter())
    }

    /// Records for one machine group, sorted by `(hour, machine)` — a
    /// k-way merge of per-run slices and the delta slice.
    pub fn by_group(&self, group: GroupKey) -> impl Iterator<Item = &MachineHourRecord> {
        merge_k_by_hour_machine(
            self.sides().into_iter().map(|s| s.group_rows(group)).collect(),
        )
    }

    /// Records within `[start_hour, end_hour)`, sorted by
    /// `(hour, machine)`. Runs whose hour bounds miss the window are
    /// skipped without touching their segments.
    pub fn by_hours(
        &self,
        start_hour: u64,
        end_hour: u64,
    ) -> impl Iterator<Item = &MachineHourRecord> {
        merge_k_by_hour_machine(
            self.window_sides(start_hour, end_hour)
                .into_iter()
                .map(|s| s.hour_window(start_hour, end_hour))
                .collect(),
        )
    }

    /// Records for a set of machines within `[start_hour, end_hour)` —
    /// the shape of a flighting measurement query. Hour-bound pruning
    /// first, then the hour range is an index probe on each surviving
    /// side and machine membership is one bitmap test per candidate row
    /// (dense ids, no `BTreeSet` lookup per record).
    pub fn by_machines_and_hours<'a>(
        &'a self,
        machines: &BTreeSet<MachineId>,
        start_hour: u64,
        end_hour: u64,
    ) -> impl Iterator<Item = &'a MachineHourRecord> {
        merge_k_by_hour_machine(
            self.window_sides(start_hour, end_hour)
                .into_iter()
                .map(|s| s.machines_hour_window(machines, start_hour, end_hour))
                .collect(),
        )
    }

    /// The distinct machine groups present, sorted.
    pub fn groups(&self) -> Vec<GroupKey> {
        self.sides()
            .into_iter()
            .fold(Vec::new(), |acc, s| merge_dedup(&acc, &s.groups))
    }

    /// The distinct machines present, sorted.
    pub fn machines(&self) -> Vec<MachineId> {
        self.sides()
            .into_iter()
            .fold(Vec::new(), |acc, s| merge_dedup(&acc, &s.machines))
    }

    /// Inclusive-exclusive hour span `(min, max+1)` covered by the
    /// store, or `None` when empty. O(runs) over the recorded bounds —
    /// no segment is decoded — and the delta contributes an O(1) read
    /// when its mini-index is built or a single min/max pass over the
    /// (small) buffer when not; this never forces an index build.
    pub fn hour_span(&self) -> Option<(u64, u64)> {
        let runs_span = self.runs.iter().fold(None, |acc, r| match acc {
            None => Some(r.bounds),
            Some((lo, hi)) => Some((lo.min(r.bounds.0), hi.max(r.bounds.1))),
        });
        let delta_span = match self.delta.get() {
            Some(delta) => delta
                .hours
                .first()
                .zip(delta.hours.last())
                .map(|(&lo, &hi)| (lo, hi)),
            None => self
                .tail
                .iter()
                .map(|r| r.hour)
                .fold(None, |acc, h| match acc {
                    None => Some((h, h)),
                    Some((lo, hi)) => Some((lo.min(h), hi.max(h))),
                }),
        };
        match (runs_span, delta_span) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d) + 1)),
            (Some((a, b)), None) | (None, Some((a, b))) => Some((a, b + 1)),
            (None, None) => None,
        }
    }
}

/// The pre-columnar flat store, preserved verbatim as an executable
/// specification. Every view is an O(N) scan with a per-record predicate
/// and every distinct-set query materializes a `BTreeSet` — exactly what
/// the run+delta engine replaces. The randomized agreement suite
/// (`tests/agreement.rs`) pins the two implementations to identical views
/// and 1e-9-identical aggregates at every intermediate state of
/// interleaved mutate/query sequences; the `telemetry_scan` and
/// `telemetry_stream` benches measure the speedup against it.
pub mod reference {
    use crate::record::{GroupKey, MachineHourRecord, MachineId};
    use std::collections::BTreeSet;

    /// Append-only store of machine-hour records (flat-scan reference).
    #[derive(Debug, Clone, Default)]
    pub struct TelemetryStore {
        records: Vec<MachineHourRecord>,
    }

    impl TelemetryStore {
        /// Creates an empty store.
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends one record.
        pub fn push(&mut self, record: MachineHourRecord) {
            debug_assert!(record.metrics.is_finite(), "non-finite telemetry emitted");
            self.records.push(record);
        }

        /// Appends many records.
        pub fn extend(&mut self, records: impl IntoIterator<Item = MachineHourRecord>) {
            for r in records {
                self.push(r);
            }
        }

        /// Number of records.
        pub fn len(&self) -> usize {
            self.records.len()
        }

        /// True when empty.
        pub fn is_empty(&self) -> bool {
            self.records.is_empty()
        }

        /// All records, in insertion order.
        pub fn iter(&self) -> impl Iterator<Item = &MachineHourRecord> {
            self.records.iter()
        }

        /// Records for one machine group (predicate scan).
        pub fn by_group(&self, group: GroupKey) -> impl Iterator<Item = &MachineHourRecord> {
            self.records.iter().filter(move |r| r.group == group)
        }

        /// Records within `[start_hour, end_hour)` (predicate scan).
        pub fn by_hours(
            &self,
            start_hour: u64,
            end_hour: u64,
        ) -> impl Iterator<Item = &MachineHourRecord> {
            self.records
                .iter()
                .filter(move |r| r.hour >= start_hour && r.hour < end_hour)
        }

        /// Records for a set of machines within `[start_hour, end_hour)`
        /// (predicate scan with a `BTreeSet::contains` per record).
        pub fn by_machines_and_hours<'a>(
            &'a self,
            machines: &'a BTreeSet<MachineId>,
            start_hour: u64,
            end_hour: u64,
        ) -> impl Iterator<Item = &'a MachineHourRecord> {
            self.records.iter().filter(move |r| {
                r.hour >= start_hour && r.hour < end_hour && machines.contains(&r.machine)
            })
        }

        /// The distinct machine groups present, sorted.
        pub fn groups(&self) -> Vec<GroupKey> {
            let set: BTreeSet<GroupKey> = self.records.iter().map(|r| r.group).collect();
            set.into_iter().collect()
        }

        /// The distinct machines present, sorted.
        pub fn machines(&self) -> Vec<MachineId> {
            let set: BTreeSet<MachineId> = self.records.iter().map(|r| r.machine).collect();
            set.into_iter().collect()
        }

        /// Inclusive-exclusive hour span `(min, max+1)` covered by the
        /// store, or `None` when empty (two-pass, as shipped).
        pub fn hour_span(&self) -> Option<(u64, u64)> {
            let min = self.records.iter().map(|r| r.hour).min()?;
            let max = self.records.iter().map(|r| r.hour).max()?;
            Some((min, max + 1))
        }

        /// Merges another store into this one, routed through
        /// [`extend`](TelemetryStore::extend) so merged records face the
        /// same non-finite validation as pushed ones.
        pub fn merge(&mut self, other: TelemetryStore) {
            self.extend(other.records);
        }
    }

    // The one test needs the debug-build validation panic.
    #[cfg(all(test, debug_assertions))]
    mod tests {
        use super::*;
        use crate::record::{MetricValues, ScId, SkuId};

        /// Regression twin of the columnar store's test: the reference
        /// `merge` must apply the same non-finite validation as `push`.
        #[test]
        #[should_panic(expected = "non-finite telemetry emitted")]
        fn merge_rejects_non_finite_records() {
            let bad_record = MachineHourRecord {
                machine: MachineId(1),
                group: GroupKey::new(SkuId(0), ScId(0)),
                hour: 0,
                metrics: MetricValues {
                    cpu_utilization: f64::INFINITY,
                    ..Default::default()
                },
            };
            let bad = TelemetryStore {
                records: vec![bad_record],
            };
            let mut store = TelemetryStore::new();
            store.merge(bad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MetricValues, ScId, SkuId};

    fn rec(machine: u32, sku: u16, hour: u64, cpu: f64) -> MachineHourRecord {
        MachineHourRecord {
            machine: MachineId(machine),
            group: GroupKey::new(SkuId(sku), ScId(0)),
            hour,
            metrics: MetricValues {
                cpu_utilization: cpu,
                ..Default::default()
            },
        }
    }

    /// The single run of a store known to have exactly one — panics (in
    /// tests only) otherwise, which is itself the assertion.
    fn single_run(store: &TelemetryStore) -> &ColumnIndex {
        assert_eq!(store.runs.len(), 1, "expected exactly one sealed run");
        store.run_side(&store.runs[0])
    }

    #[test]
    fn push_and_filters() {
        let mut store = TelemetryStore::new();
        store.push(rec(1, 0, 0, 10.0));
        store.push(rec(1, 0, 1, 20.0));
        store.push(rec(2, 1, 0, 30.0));
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.by_group(GroupKey::new(SkuId(1), ScId(0))).count(),
            1
        );
        assert_eq!(store.by_hours(0, 1).count(), 2);
        assert_eq!(store.by_hours(1, 2).count(), 1);
    }

    #[test]
    fn extend_validated_rejects_non_finite_in_all_profiles() {
        let mut store = TelemetryStore::new();
        // Every ingest path drops and counts non-finite records, in
        // every build profile.
        let dropped = store.extend_validated(vec![
            rec(1, 0, 0, 10.0),
            rec(1, 0, 1, f64::NAN),
            rec(1, 0, 2, f64::INFINITY),
            rec(2, 0, 0, 20.0),
        ]);
        assert_eq!(dropped, 2);
        assert_eq!(store.len(), 2);
        // Clean batches pass through untouched.
        assert_eq!(store.extend_validated(vec![rec(3, 0, 0, 5.0)]), 0);
        assert_eq!(store.len(), 3);

        assert!(!store.push(rec(4, 0, 0, f64::NAN)));
        assert!(store.push(rec(4, 0, 1, 1.0)));
        assert_eq!(store.len(), 4);
        assert_eq!(
            store.extend(vec![rec(5, 0, 0, f64::NEG_INFINITY), rec(5, 0, 1, 2.0)]),
            1
        );
        assert_eq!(store.len(), 5);
        let other = TelemetryStore {
            tail: vec![rec(6, 0, 0, f64::INFINITY), rec(6, 0, 1, 3.0)],
            ..TelemetryStore::default()
        };
        assert_eq!(store.merge(other), 1);
        assert_eq!(store.len(), 6);
        assert!(store.iter().all(|r| r.metrics.is_finite()));
    }

    #[test]
    fn groups_and_machines_sorted_unique() {
        let mut store = TelemetryStore::new();
        store.push(rec(3, 2, 0, 0.0));
        store.push(rec(1, 0, 0, 0.0));
        store.push(rec(3, 2, 1, 0.0));
        assert_eq!(store.machines(), vec![MachineId(1), MachineId(3)]);
        let groups = store.groups();
        assert_eq!(groups.len(), 2);
        assert!(groups[0] < groups[1]);
    }

    #[test]
    fn hour_span() {
        let mut store = TelemetryStore::new();
        assert_eq!(store.hour_span(), None);
        store.push(rec(1, 0, 5, 0.0));
        store.push(rec(1, 0, 9, 0.0));
        // One-pass unsealed path must not force a delta index build.
        assert_eq!(store.hour_span(), Some((5, 10)));
        assert!(!store.is_sealed());
        // Sealed path reads the recorded run bounds in O(1).
        store.seal();
        assert_eq!(store.hour_span(), Some((5, 10)));
        // Straddling runs and delta: span covers both sides.
        store.push(rec(1, 0, 2, 0.0));
        store.push(rec(1, 0, 30, 0.0));
        assert_eq!(store.hour_span(), Some((2, 31)));
    }

    #[test]
    fn machines_and_hours_filter() {
        let mut store = TelemetryStore::new();
        for m in 0..4 {
            for h in 0..5 {
                store.push(rec(m, 0, h, 0.0));
            }
        }
        let subset: BTreeSet<MachineId> = [MachineId(1), MachineId(3)].into_iter().collect();
        assert_eq!(store.by_machines_and_hours(&subset, 1, 3).count(), 4);
        // Machines the store has never seen are simply absent.
        let strangers: BTreeSet<MachineId> = [MachineId(99)].into_iter().collect();
        assert_eq!(store.by_machines_and_hours(&strangers, 0, 5).count(), 0);
    }

    #[test]
    fn merge_combines_records() {
        let mut a = TelemetryStore::new();
        a.push(rec(1, 0, 0, 0.0));
        let mut b = TelemetryStore::new();
        b.push(rec(2, 0, 0, 0.0));
        a.merge(b);
        assert_eq!(a.len(), 2);
    }

    /// Regression (previously: `merge` appended `other.records` directly,
    /// bypassing the non-finite guard that `push` enforces, so a store
    /// assembled from per-window merges could smuggle NaN metrics into
    /// the kernels). `merge` now routes through the same validated batch
    /// append as `extend`, in every build profile.
    #[test]
    fn merge_rejects_non_finite_records() {
        // Build the offending store around the validated entry points,
        // the way a corrupted window would arrive from outside.
        let bad = TelemetryStore {
            tail: vec![rec(1, 0, 0, f64::NAN)],
            ..TelemetryStore::default()
        };
        let mut store = TelemetryStore::new();
        store.push(rec(2, 0, 0, 1.0));
        assert_eq!(store.merge(bad), 1);
        assert_eq!(store.len(), 1);
        assert!(store.iter().all(|r| r.metrics.is_finite()));
    }

    #[test]
    fn extend_from_iterator() {
        let mut store = TelemetryStore::new();
        store.extend((0..10).map(|h| rec(1, 0, h, h as f64)));
        assert_eq!(store.len(), 10);
        assert!(store.iter().all(|r| r.machine == MachineId(1)));
    }

    #[test]
    fn by_group_is_hour_machine_sorted() {
        let mut store = TelemetryStore::new();
        // Shuffled insertion order.
        store.push(rec(2, 1, 5, 0.0));
        store.push(rec(1, 0, 3, 0.0));
        store.push(rec(3, 0, 1, 0.0));
        store.push(rec(1, 0, 1, 0.0));
        let g0: Vec<_> = store.by_group(GroupKey::new(SkuId(0), ScId(0))).collect();
        assert_eq!(g0.len(), 3);
        assert!(g0.windows(2).all(|w| (w[0].hour, w[0].machine) <= (w[1].hour, w[1].machine)));
        assert_eq!(
            store.by_group(GroupKey::new(SkuId(9), ScId(0))).count(),
            0
        );
    }

    #[test]
    fn append_after_seal_lands_in_delta() {
        let mut store = TelemetryStore::new();
        store.push(rec(1, 0, 0, 1.0));
        store.seal();
        assert!(store.is_sealed());
        store.push(rec(2, 0, 1, 2.0));
        assert!(!store.is_sealed(), "append must open a delta");
        assert_eq!(store.delta_len(), 1);
        // Views merge runs + delta without sealing.
        assert_eq!(store.by_hours(0, 2).count(), 2);
        assert_eq!(store.machines().len(), 2);
        assert!(!store.is_sealed(), "queries must not seal");
        // Explicit seal turns the delta into a run.
        store.seal();
        assert!(store.is_sealed());
        assert_eq!(store.delta_len(), 0);
        assert_eq!(store.by_hours(0, 2).count(), 2);
    }

    #[test]
    fn merged_views_interleave_runs_and_delta() {
        let mut store = TelemetryStore::new();
        // Run: hours 0, 2, 4 on machine 1; delta: hours 1, 2, 3 on
        // machines 2/1/1 — merged views must interleave by (hour, machine).
        for h in [0u64, 2, 4] {
            store.push(rec(1, 0, h, 1.0));
        }
        store.seal();
        store.push(rec(2, 0, 1, 2.0));
        store.push(rec(1, 0, 2, 2.0));
        store.push(rec(1, 0, 3, 2.0));
        let hours: Vec<(u64, u32)> = store
            .by_group(GroupKey::new(SkuId(0), ScId(0)))
            .map(|r| (r.hour, r.machine.0))
            .collect();
        assert_eq!(hours, vec![(0, 1), (1, 2), (2, 1), (2, 1), (3, 1), (4, 1)]);
        // Duplicate (machine, hour) keys: run rows come first.
        let dup: Vec<f64> = store
            .by_hours(2, 3)
            .map(|r| r.metrics.cpu_utilization)
            .collect();
        assert_eq!(dup, vec![1.0, 2.0]);
    }

    #[test]
    fn automatic_compaction_past_threshold() {
        let mut store = TelemetryStore::new();
        // One batch bigger than the floor seals once at the end.
        store.extend((0..1500u64).map(|i| rec((i % 7) as u32, 0, i, i as f64)));
        assert!(store.is_sealed(), "bulk extend seals at call end");
        // Small pushes stay in the delta…
        for i in 0..100u64 {
            store.push(rec(1, 0, 2000 + i, 0.0));
        }
        assert!(!store.is_sealed());
        assert_eq!(store.delta_len(), 100);
        // …until the per-call check crosses the delta floor.
        store.extend((0..1000u64).map(|i| rec(2, 0, 3000 + i, 0.0)));
        assert!(store.is_sealed(), "threshold crossing seals");
        assert_eq!(store.len(), 2600);
        assert_eq!(store.by_hours(0, 5000).count(), 2600);
        // The 1100-row batch is smaller than the 1500-row elder run, so
        // the ladder leaves them as two runs.
        assert_eq!(store.run_count(), 2);
    }

    #[test]
    fn ladder_bounds_run_count() {
        // 64 sealed batches of equal size collapse like a binary counter:
        // the live run count stays logarithmic in the batch count.
        let mut store = TelemetryStore::new();
        for b in 0..64u64 {
            store.extend((0..32u64).map(|i| rec((i % 4) as u32, 0, b * 32 + i, 0.0)));
            store.seal();
            assert!(
                store.run_count() <= 7,
                "run count {} exceeds log bound after batch {b}",
                store.run_count()
            );
        }
        assert_eq!(store.len(), 64 * 32);
        assert_eq!(store.by_hours(0, 64 * 32).count(), 64 * 32);
    }

    #[test]
    fn window_sides_prune_disjoint_runs() {
        let mut store = TelemetryStore::new();
        // Two runs with disjoint hour ranges. Equal sizes would
        // ladder-merge, so make the elder strictly larger.
        store.extend((0..20u64).map(|h| rec(1, 0, h, 0.0)));
        store.seal();
        store.extend((100..110u64).map(|h| rec(1, 0, h, 0.0)));
        store.seal();
        assert_eq!(store.run_count(), 2);
        // A window inside the second run's bounds consults one side.
        assert_eq!(store.window_sides(100, 105).len(), 1);
        assert_eq!(store.window_sides(0, 20).len(), 1);
        // A window spanning both consults both.
        assert_eq!(store.window_sides(10, 101).len(), 2);
        // A window in the gap consults none (no delta).
        assert_eq!(store.window_sides(50, 60).len(), 0);
        // An open delta is always a side.
        store.push(rec(2, 0, 55, 0.0));
        assert_eq!(store.window_sides(50, 60).len(), 1);
        assert_eq!(store.by_hours(50, 60).count(), 1);
        // And query results match the pruned merge.
        assert_eq!(store.by_hours(0, 200).count(), 31);
        assert_eq!(store.by_hours(100, 105).count(), 5);
    }

    #[test]
    fn ladder_merge_equals_fresh_build() {
        // Four equal batches sealed one by one collapse through the
        // ladder's pairwise merges into one run, structurally identical
        // to an index built from scratch. Keys are unique per record
        // (disjoint machine ranges per batch): with duplicate keys the
        // unstable build sort and the stable merge may legally order the
        // duplicates' payloads differently — that case is covered as a
        // multiset by the agreement suite.
        let mut merged = TelemetryStore::new();
        let mut rebuilt = TelemetryStore::new();
        let batches: Vec<Vec<MachineHourRecord>> = (0..4u64)
            .map(|b| {
                (0..40u64)
                    .map(|i| rec((b * 100 + i % 10) as u32, (b % 3) as u16, (i * 3 + b) % 50, (b + i) as f64))
                    .collect()
            })
            .collect();
        for batch in &batches {
            merged.extend(batch.iter().copied());
            merged.seal(); // 40 → 80 → 80+40 → 160: one run
            rebuilt.extend(batch.iter().copied());
        }
        rebuilt.seal();
        let (a, b) = (single_run(&merged), single_run(&rebuilt));
        assert_eq!(a.sorted, b.sorted);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.group_offsets, b.group_offsets);
        assert_eq!(a.machines, b.machines);
        assert_eq!(a.machine_dense, b.machine_dense);
        assert_eq!(a.hours, b.hours);
        assert_eq!(a.hour_offsets, b.hour_offsets);
        assert_eq!(a.columns, b.columns);
        // The hour permutations may order duplicate (hour, machine) keys
        // differently; they must agree after mapping to records.
        let gather = |idx: &ColumnIndex| -> Vec<MachineHourRecord> {
            idx.hour_order.iter().map(|&row| idx.sorted[row]).collect()
        };
        assert_eq!(gather(a), gather(b));
    }

    #[test]
    fn index_csr_invariants() {
        let mut store = TelemetryStore::new();
        for m in 0..5u32 {
            for h in [0u64, 2, 7] {
                store.push(rec(m, (m % 2) as u16, h, m as f64));
            }
        }
        store.seal();
        let idx = single_run(&store);
        assert_eq!(idx.group_offsets.len(), idx.groups.len() + 1);
        assert_eq!(idx.hour_offsets.len(), idx.hours.len() + 1);
        assert_eq!(*idx.group_offsets.last().unwrap(), store.len());
        assert_eq!(*idx.hour_offsets.last().unwrap(), store.len());
        assert!(idx.group_offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(idx.hour_offsets.windows(2).all(|w| w[0] <= w[1]));
        // Columns are per-metric and full-length.
        assert_eq!(idx.columns.len(), Metric::ALL.len());
        assert!(idx.columns.iter().all(|c| c.len() == store.len()));
        // Dense ids round-trip.
        for (row, r) in idx.sorted.iter().enumerate() {
            assert_eq!(idx.machines[idx.machine_dense[row] as usize], r.machine);
        }
    }

    #[test]
    fn merged_index_csr_invariants() {
        // Same invariants on a run produced by ColumnIndex::merge (the
        // 15-row elder is no larger than the 18-row newcomer, so the
        // second seal ladder-merges them into one run).
        let mut store = TelemetryStore::new();
        for m in 0..5u32 {
            for h in [0u64, 2, 7] {
                store.push(rec(m, (m % 2) as u16, h, m as f64));
            }
        }
        store.seal();
        for m in 3..9u32 {
            for h in [1u64, 2, 9] {
                store.push(rec(m, (m % 3) as u16, h, m as f64));
            }
        }
        store.seal();
        let idx = single_run(&store);
        assert_eq!(idx.group_offsets.len(), idx.groups.len() + 1);
        assert_eq!(idx.hour_offsets.len(), idx.hours.len() + 1);
        assert_eq!(*idx.group_offsets.last().unwrap(), store.len());
        assert_eq!(*idx.hour_offsets.last().unwrap(), store.len());
        assert!(idx.sorted.windows(2).all(|w| {
            (w[0].group, w[0].hour, w[0].machine) <= (w[1].group, w[1].hour, w[1].machine)
        }));
        for (row, r) in idx.sorted.iter().enumerate() {
            assert_eq!(idx.machines[idx.machine_dense[row] as usize], r.machine);
        }
        for (col, metric) in idx.columns.iter().zip(Metric::ALL) {
            for (row, r) in idx.sorted.iter().enumerate() {
                assert_eq!(col[row], metric.value(&r.metrics));
            }
        }
    }

    #[test]
    fn merge_handles_empty_sides() {
        let batch: Vec<MachineHourRecord> =
            (0..8u64).map(|i| rec(i as u32, 0, i, i as f64)).collect();
        let idx = ColumnIndex::build(&batch);
        let empty = ColumnIndex::build(&[]);
        // Two empty sides → the empty index.
        assert!(ColumnIndex::merge(&empty, &empty).sorted.is_empty());
        // One empty side → the other side, on either hand.
        for one in [ColumnIndex::merge(&empty, &idx), ColumnIndex::merge(&idx, &empty)] {
            assert_eq!(one.sorted, idx.sorted);
            assert_eq!(one.hour_order, idx.hour_order);
        }
    }

    #[test]
    fn empty_store_indexed_queries() {
        let mut store = TelemetryStore::new();
        store.seal();
        assert!(store.groups().is_empty());
        assert!(store.machines().is_empty());
        assert_eq!(store.hour_span(), None);
        assert_eq!(store.by_hours(0, 10).count(), 0);
        assert_eq!(store.run_count(), 0);
    }

    #[test]
    fn clone_is_detached_and_equal() {
        let mut store = TelemetryStore::new();
        store.extend((0..50u64).map(|i| rec((i % 5) as u32, 0, i, i as f64)));
        store.seal();
        store.push(rec(9, 1, 60, 1.0));
        let mut twin = store.clone();
        assert_eq!(twin.len(), store.len());
        assert_eq!(
            twin.by_hours(0, 100).count(),
            store.by_hours(0, 100).count()
        );
        assert!(!twin.is_durable());
        // Mutating the clone leaves the original untouched.
        twin.push(rec(10, 1, 61, 1.0));
        assert_eq!(store.len(), 51);
        assert_eq!(twin.len(), 52);
    }
}
