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
//!   each is a compacted slice of history in one sort order, `(group,
//!   hour, machine)`, with interned dense machine ids and one CSR offset
//!   table over the `(group, hour)` prefix of that key. A group's rows
//!   and any hour window of them are therefore one contiguous slice, in
//!   `(hour, machine)` order, found by binary search on that table. A
//!   run's struct-of-arrays metric columns are built per metric on first
//!   use, so a decoded row holds its metric values once.
//!   So is the run's own daily roll-up, `(group, machine, day)`-sorted,
//!   which the daily roll-ups read for every day that run alone holds;
//!   it lives in memory only and goes with the run when the ladder
//!   merges it. Every run carries its inclusive `[min_hour, max_hour]`
//!   bounds, so hour-windowed queries skip runs that cannot contain the
//!   window.
//! * The **delta** is the tail of the record log appended since the last
//!   seal. On first query it is sealed into a *mini* `ColumnIndex` of
//!   its own (cost `O(d log d)` for `d` delta rows, at most 65,536),
//!   cached until the next mutation.
//!
//! [`by_group`](TelemetryStore::by_group) and the fused kernels in
//! [`crate::aggregate`] answer by **k-way merging** each group's slice
//! across the relevant runs plus the delta: sorted sources, one
//! key-ordered merge, no re-sort. The hour-window views
//! ([`by_hours`](TelemetryStore::by_hours),
//! [`by_machines_and_hours`](TelemetryStore::by_machines_and_hours))
//! chain each side's per-group window slices without merging, since
//! every caller reduces the rows to sums, means or a t-test. When the
//! delta outgrows its 65,536-row floor (checked once per
//! mutating call) or on an explicit [`seal`](TelemetryStore::seal), it
//! becomes a new sealed run; a *ladder* compaction then merges the
//! newest runs while each is no larger than its elder neighbour — the
//! classic binary-counter schedule, so every record is re-merged
//! `O(log n)` times total and big old runs are left untouched by small
//! fresh ones. Every merge is a linear two-way merge of an adjacent
//! pair. The ladder is the only compaction rule: `sync` persists the
//! runs as they stand, so `n` equal day-sized seals leave at most
//! `⌈log₂ n⌉ + 1` runs, in memory and on disk.
//!
//! # Durability
//!
//! A store created by [`TelemetryStore::open`] mirrors each sealed run
//! to a segment file under the manifest-flip protocol of
//! [`crate::persist`]; the delta rides the write-ahead log. `open` loads
//! and checks every segment before it returns, so a store that opens is
//! whole: a segment that fails any check is quarantined and fails the
//! open with a typed error, and no query ever meets a half-loaded store.
//!
//! The pre-columnar flat-scan implementation survives unchanged as
//! [`reference::TelemetryStore`]: it is the executable specification that
//! the randomized agreement suite (`tests/agreement.rs`) pins the
//! multi-run engine against at every intermediate state of interleaved
//! mutate/query sequences, and the baseline the
//! `telemetry_scan`/`telemetry_stream` benches measure speedups over.

use crate::aggregate::{daily_core, DailyAggregate, ALL_HOURS};
use crate::metric::Metric;
use crate::persist;
use crate::record::{GroupKey, MachineHourRecord, MachineId};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::OnceLock;

/// Delta sizes up to this never trigger automatic sealing: 65,536
/// records are an 8 MiB buffer. A sub-day batch (a small fleet's hour)
/// therefore stays in the delta, and on a durable store in the WAL,
/// until the caller's day-close [`seal`](TelemetryStore::seal), so each
/// sync in between is one WAL frame and every run the ladder sees is
/// day-sized. A larger batch (a 300k-machine hour) still seals at once.
const MIN_COMPACT_DELTA: usize = 65_536;

/// One sealed, immutable run of the store. Empty runs are never created.
#[derive(Debug, Clone)]
struct SealedRun {
    /// Inclusive `[min_hour, max_hour]` covered by the run.
    bounds: (u64, u64),
    /// Segment file name once persisted by a sync; `None` while dirty.
    seg: Option<String>,
    /// The run's rows in the columnar layout.
    index: ColumnIndex,
}

impl SealedRun {
    /// A run over `index`, persisted as segment `seg` if named; `None`
    /// when `index` is empty.
    fn new(index: ColumnIndex, seg: Option<String>) -> Option<SealedRun> {
        let bounds = index.hour_bounds()?;
        Some(SealedRun { bounds, seg, index })
    }

    /// Row count (also recorded in the manifest once persisted).
    fn rows(&self) -> usize {
        self.index.sorted.len()
    }
}

/// Append-only store of machine-hour records: N sealed columnar runs
/// plus a small delta buffer for streaming appends.
#[derive(Debug, Default)]
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
}

impl Clone for TelemetryStore {
    /// Clones the in-memory state only. A clone of a durable store is
    /// *detached*: it holds the same records but no file handles, so
    /// mutating the clone never races the original's directory and
    /// `sync()` on the clone reports [`persist::PersistError::NotDurable`].
    fn clone(&self) -> Self {
        TelemetryStore {
            runs: self.runs.clone(),
            tail: self.tail.clone(),
            delta: self.delta.clone(),
            backing: None,
        }
    }
}

/// The sealed columnar layout. Built by [`ColumnIndex::build`] (sort),
/// [`ColumnIndex::merge`] (linear compaction of two sorted runs) or
/// [`IndexLoader`] (a segment streaming off disk); immutable
/// afterwards, except that each metric column is filled once, on first
/// use ([`ColumnIndex::column`]). The block table follows the CSR
/// convention: `block_offsets.len() == blocks.len() + 1` and block `i`
/// owns rows `block_offsets[i]..block_offsets[i + 1]`.
//
// kea-lint: allow-file(index-in-library) — dense index kernel: every row
// position is produced by this module's own sort/merge/partition passes and
// every offset table is constructed with the CSR invariant checked in tests.
#[derive(Debug, Clone)]
pub(crate) struct ColumnIndex {
    /// All records sorted by `(group, hour, machine)`: the run's one
    /// sort order.
    pub(crate) sorted: Vec<MachineHourRecord>,
    /// Distinct `(group, hour)` prefixes of the sort key, ascending: one
    /// *block* of rows each. Derived from `sorted`, never persisted.
    pub(crate) blocks: Vec<(GroupKey, u64)>,
    /// CSR offsets into `sorted` per block.
    pub(crate) block_offsets: Vec<usize>,
    /// Distinct machines, ascending. A machine's position here is its
    /// *dense id*.
    pub(crate) machines: Vec<MachineId>,
    /// Dense machine id of each row of `sorted`.
    pub(crate) machine_dense: Vec<u32>,
    /// Struct-of-arrays metric columns in `sorted` row order, one per
    /// metric, each built on first use by [`ColumnIndex::column`].
    columns: [OnceLock<Vec<f64>>; Metric::ALL.len()],
    /// The daily roll-up of these rows alone, built on first use by
    /// [`ColumnIndex::daily`].
    daily: OnceLock<Vec<DailyAggregate>>,
}

impl ColumnIndex {
    /// Sorts and interns `records` into the columnar layout, in place.
    pub(crate) fn build(mut records: Vec<MachineHourRecord>) -> Self {
        records.sort_unstable_by_key(|r| (r.group, r.hour, r.machine));
        Self::from_sorted(records)
    }

    /// The values of `metric` in `sorted` row order:
    /// `column(m)[row] == m.value(&sorted[row].metrics)`. Built from
    /// `sorted` on the first call per metric and kept for the index's
    /// lifetime; only the fleet-series and group-utilization kernels
    /// ask, for at most two metrics, so the other columns never cost
    /// memory. (The daily roll-up reads whole rows, and caches its own
    /// output instead: [`ColumnIndex::daily`].)
    pub(crate) fn column(&self, metric: Metric) -> &[f64] {
        self.columns[metric.index()]
            .get_or_init(|| self.sorted.iter().map(|r| metric.value(&r.metrics)).collect())
    }

    /// The daily roll-up of this index's rows alone, sorted by `(group,
    /// machine, day)`: the per-run cache behind
    /// [`daily_group_aggregates`](crate::aggregate::daily_group_aggregates).
    /// Built by the roll-up kernel on the first call and kept for the
    /// index's lifetime; a ladder merge builds a new index, so a merged
    /// run starts cold and its inputs' caches go with them. Each entry is
    /// summed from the same rows in the same order as the kernel over
    /// every side sums it whenever this index is the only side holding
    /// that day.
    pub(crate) fn daily(&self) -> &[DailyAggregate] {
        self.daily
            .get_or_init(|| daily_core(std::slice::from_ref(&self), &[ALL_HOURS]))
    }

    /// Builds the index structures over records already sorted by
    /// `(group, hour, machine)`: the tail of [`ColumnIndex::build`], its
    /// only caller ([`ColumnIndex::merge`] derives its own tables).
    fn from_sorted(sorted: Vec<MachineHourRecord>) -> Self {
        let (blocks, block_offsets) = block_runs(&sorted);

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

        ColumnIndex {
            sorted,
            blocks,
            block_offsets,
            machines,
            machine_dense,
            columns: Default::default(),
            daily: OnceLock::new(),
        }
    }

    /// Compacts two sealed indexes into one in `O(n + d)`: one linear
    /// two-way merge of the already-sorted inputs yields the records and
    /// their remapped dense ids, and the block table is derived from the
    /// result; the combined row set is never re-sorted. `a` rows win
    /// ties, so merging an older run with a newer one keeps arrival
    /// order among duplicate `(group, hour, machine)` keys.
    pub(crate) fn merge(a: &ColumnIndex, b: &ColumnIndex) -> ColumnIndex {
        if a.sorted.is_empty() {
            return b.clone();
        }
        if b.sorted.is_empty() {
            return a.clone();
        }
        let (an, bn) = (a.sorted.len(), b.sorted.len());

        // Machine space: merge-dedup the two distinct lists; each side's
        // dense ids are remapped into it as its rows are taken.
        let machines = merge_dedup(&a.machines, &b.machines);
        let a_remap = remap_into(&a.machines, &machines);
        let b_remap = remap_into(&b.machines, &machines);

        let key = |r: &MachineHourRecord| (r.group, r.hour, r.machine);
        let mut sorted = Vec::with_capacity(an + bn);
        let mut machine_dense = Vec::with_capacity(an + bn);
        let (mut i, mut j) = (0usize, 0usize);
        while i < an || j < bn {
            let take_a = j >= bn || (i < an && key(&a.sorted[i]) <= key(&b.sorted[j]));
            let (side, row, remap) = if take_a {
                i += 1;
                (a, i - 1, &a_remap)
            } else {
                j += 1;
                (b, j - 1, &b_remap)
            };
            sorted.push(side.sorted[row]);
            machine_dense.push(remap[side.machine_dense[row] as usize]);
        }
        let (blocks, block_offsets) = block_runs(&sorted);

        ColumnIndex {
            sorted,
            blocks,
            block_offsets,
            machines,
            machine_dense,
            columns: Default::default(),
            daily: OnceLock::new(),
        }
    }

    /// Inclusive `(first, last)` hour of the rows, read off the block
    /// table; `None` when the index is empty.
    pub(crate) fn hour_bounds(&self) -> Option<(u64, u64)> {
        let hours = self.blocks.iter().map(|&(_, hour)| hour);
        hours.clone().min().zip(hours.max())
    }

    /// Each group present, ascending, with its row range in `sorted`.
    pub(crate) fn group_slices(&self) -> impl Iterator<Item = (GroupKey, Range<usize>)> + '_ {
        let mut at = 0;
        self.blocks.chunk_by(|x, y| x.0 == y.0).map(move |blocks| {
            let rows = self.block_offsets[at]..self.block_offsets[at + blocks.len()];
            at += blocks.len();
            (blocks[0].0, rows)
        })
    }

    /// The distinct groups present, ascending.
    pub(crate) fn groups(&self) -> Vec<GroupKey> {
        self.group_slices().map(|(group, _)| group).collect()
    }

    /// Row range of one group in `sorted`, empty when absent.
    pub(crate) fn group_range(&self, group: GroupKey) -> Range<usize> {
        let lo = self.blocks.partition_point(|&(g, _)| g < group);
        let hi = self.blocks.partition_point(|&(g, _)| g <= group);
        self.block_offsets[lo]..self.block_offsets[hi]
    }

    /// Row range of one group's hours `[start, end)` in `sorted`, in
    /// `(hour, machine)` order: two binary searches on the block table.
    pub(crate) fn group_window(&self, group: GroupKey, start: u64, end: u64) -> Range<usize> {
        let lo = self.blocks.partition_point(|&k| k < (group, start));
        let hi = self.blocks.partition_point(|&k| k < (group, end)).max(lo);
        self.block_offsets[lo]..self.block_offsets[hi]
    }

    /// The rows of hours `[start, end)`, group by group, each group's in
    /// `(hour, machine)` order: the blocks whose hour lies in the window.
    fn window_rows(&self, start: u64, end: u64) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .zip(self.block_offsets.windows(2))
            .filter(move |&(&(_, hour), _)| start <= hour && hour < end)
            .flat_map(|(_, rows)| rows[0]..rows[1])
    }

    /// Dense id of `machine`, if present.
    fn dense_machine(&self, machine: MachineId) -> Option<usize> {
        let mi = self.machines.partition_point(|m| *m < machine);
        (self.machines.get(mi) == Some(&machine)).then_some(mi)
    }
}

/// The distinct keys of a key-ordered sequence and their CSR offsets,
/// collected as the keys stream by.
struct Runs<K> {
    keys: Vec<K>,
    offsets: Vec<usize>,
}

impl<K: Copy + PartialEq> Runs<K> {
    fn new() -> Self {
        Runs { keys: Vec::new(), offsets: vec![0] }
    }

    /// Notes that position `pos` of the sequence holds `key`.
    fn push(&mut self, pos: usize, key: K) {
        if self.keys.last() != Some(&key) {
            if !self.keys.is_empty() {
                self.offsets.push(pos);
            }
            self.keys.push(key);
        }
    }

    /// The distinct keys and their offsets over all `len` positions.
    fn finish(mut self, len: usize) -> (Vec<K>, Vec<usize>) {
        if !self.keys.is_empty() {
            self.offsets.push(len);
        }
        (self.keys, self.offsets)
    }
}

/// The block table of `(group, hour, machine)`-sorted records: each
/// distinct `(group, hour)` and its CSR offsets.
fn block_runs(sorted: &[MachineHourRecord]) -> (Vec<(GroupKey, u64)>, Vec<usize>) {
    let mut runs = Runs::new();
    for (row, r) in sorted.iter().enumerate() {
        runs.push(row, (r.group, r.hour));
    }
    runs.finish(sorted.len())
}

/// Rebuilds a [`ColumnIndex`] from the two tables a segment persists
/// — the sorted records and the machine table — as they stream off
/// disk, deriving the block table and dense ids and checking every
/// structural invariant the query paths rely on in the same pass. A
/// segment that decodes byte-exactly but encodes an inconsistent index
/// (hand-edited, or written by a buggy future version) is refused,
/// never queried.
///
/// Persisting only those two tables keeps a segment near-dump-speed to
/// write, and the derivation is one O(n) pass as the records arrive, far
/// cheaper than the sort of [`ColumnIndex::build`].
///
/// Feed it the machine table ([`IndexLoader::new`]), then every record
/// in file order ([`IndexLoader::push_records`]), in chunks of any size.
/// The first violation is kept and later pushes are ignored, so the
/// caller can finish reading (and checksumming) the file before
/// [`IndexLoader::finish`] reports it.
pub(crate) struct IndexLoader {
    /// Row count the segment header promises.
    n: usize,
    sorted: Vec<MachineHourRecord>,
    blocks: Runs<(GroupKey, u64)>,
    machines: Vec<MachineId>,
    machine_dense: Vec<u32>,
    /// Dense id of the previous row's machine. Within a `(group, hour)`
    /// block machines ascend, so the next row's machine is usually at or
    /// just past it; a binary search covers the rest.
    cursor: usize,
    /// Which interned machines some row references, and how many.
    machine_seen: Vec<bool>,
    machines_seen: usize,
    /// The first violation found.
    fault: Option<String>,
}

impl IndexLoader {
    /// A loader for `n` rows over the machine table `machines`, which
    /// must be strictly ascending (the exact distinct set, checked as the
    /// rows arrive).
    pub(crate) fn new(n: usize, machines: Vec<MachineId>) -> Self {
        let fault = (!machines.windows(2).all(|w| w[0] < w[1]))
            .then(|| "machine table not strictly ascending".to_string());
        IndexLoader {
            n,
            sorted: Vec::with_capacity(n),
            blocks: Runs::new(),
            machine_seen: vec![false; machines.len()],
            machines,
            machine_dense: Vec::with_capacity(n),
            cursor: 0,
            machines_seen: 0,
            fault,
        }
    }

    /// Takes the next records of `sorted`: each must not sort before its
    /// predecessor by `(group, hour, machine)`, must pass the admission
    /// rule every ingest path applies
    /// ([`MachineHourRecord::admit`]), and its machine must be in the
    /// machine table.
    pub(crate) fn push_records(&mut self, records: impl IntoIterator<Item = MachineHourRecord>) {
        if self.fault.is_some() {
            return;
        }
        let key = |r: &MachineHourRecord| (r.group, r.hour, r.machine);
        for r in records {
            let row = self.sorted.len();
            if self.sorted.last().is_some_and(|prev| key(prev) > key(&r)) {
                self.fault = Some(format!("row {row} out of (group, hour, machine) order"));
                return;
            }
            if let Err(refused) = r.admit() {
                self.fault = Some(format!("row {row} is one ingest refuses: {refused}"));
                return;
            }
            let dense = if self.machines.get(self.cursor) == Some(&r.machine) {
                self.cursor
            } else if self.machines.get(self.cursor + 1) == Some(&r.machine) {
                self.cursor + 1
            } else {
                let dense = self.machines.partition_point(|m| *m < r.machine);
                if self.machines.get(dense) != Some(&r.machine) {
                    self.fault = Some(format!(
                        "row {row}'s machine {} missing from the machine table",
                        r.machine.0
                    ));
                    return;
                }
                dense
            };
            if let Some(seen) = self.machine_seen.get_mut(dense) {
                if !*seen {
                    *seen = true;
                    self.machines_seen += 1;
                }
            }
            self.cursor = dense;
            // Dense ids fit u32 because MachineId wraps a u32 and the
            // table is strictly ascending.
            self.machine_dense.push(dense as u32);
            self.blocks.push(row, (r.group, r.hour));
            self.sorted.push(r);
        }
    }

    /// The index, or the first violation: besides what the pushes
    /// checked, every row must have arrived, and every interned machine
    /// must be referenced by some row (no phantom machines).
    pub(crate) fn finish(self) -> Result<ColumnIndex, String> {
        let fault = self.fault.or_else(|| {
            if self.sorted.len() != self.n {
                Some(format!("{} rows, header says {}", self.sorted.len(), self.n))
            } else if self.machines_seen != self.machines.len() {
                Some(format!(
                    "{} of {} interned machines referenced by no row",
                    self.machines.len() - self.machines_seen,
                    self.machines.len()
                ))
            } else {
                None
            }
        });
        if let Some(fault) = fault {
            return Err(format!("index invariants violated: {fault}"));
        }
        let (blocks, block_offsets) = self.blocks.finish(self.n);
        Ok(ColumnIndex {
            sorted: self.sorted,
            blocks,
            block_offsets,
            machines: self.machines,
            machine_dense: self.machine_dense,
            columns: Default::default(),
            daily: OnceLock::new(),
        })
    }
}

/// Merge two sorted, deduplicated key lists into one.
fn merge_dedup<T: Copy + Ord>(a: &[T], b: &[T]) -> Vec<T> {
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

/// The distinct groups across `sides`, ascending.
pub(crate) fn group_union(sides: &[&ColumnIndex]) -> Vec<GroupKey> {
    sides
        .iter()
        .fold(Vec::new(), |acc, s| merge_dedup(&acc, &s.groups()))
}

/// The distinct machines across `sides`, ascending.
pub(crate) fn machine_union(sides: &[&ColumnIndex]) -> Vec<MachineId> {
    sides
        .iter()
        .fold(Vec::new(), |acc, s| merge_dedup(&acc, &s.machines))
}

/// The merged `(hour, machine)` view: a k-way merge of one row range per
/// side, each in `(hour, machine)` order (a group's slice, or an hour
/// window of it), yielding `(side, row)` pairs in `(hour, machine)`
/// order. The earliest side wins ties, so passing sides oldest run
/// first, delta last, keeps arrival order among duplicate keys. Serves
/// [`by_group`](TelemetryStore::by_group) and the daily roll-up kernel.
pub(crate) fn merge_by_hour_machine<'a>(
    sides: &[&'a ColumnIndex],
    rows: Vec<Range<usize>>,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let mut heads: Vec<(&'a [MachineHourRecord], usize)> = sides
        .iter()
        .zip(rows)
        .map(|(s, rows)| (s.sorted.get(rows.clone()).unwrap_or_default(), rows.start))
        .collect();
    std::iter::from_fn(move || {
        let mut best: Option<(usize, (u64, MachineId))> = None;
        for (i, (rest, _)) in heads.iter().enumerate() {
            if let Some(r) = rest.first() {
                let k = (r.hour, r.machine);
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        let (i, _) = best?;
        let (rest, row) = heads.get_mut(i)?;
        *rest = rest.get(1..).unwrap_or_default();
        *row += 1;
        Some((i, *row - 1))
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
    /// every segment is loaded and checked in full (checksums, index
    /// invariants, and the manifest's rows and bounds), and the
    /// write-ahead log is replayed into the delta tail, truncating any
    /// torn tail a crash left behind. A store that opens is therefore
    /// whole; a segment that fails a check is quarantined and the open
    /// fails with [`persist::PersistError::Corrupt`] naming it. This
    /// build reads only the format it writes: a directory whose
    /// manifest carries an older header is refused before any file is
    /// touched. Every failure is a typed [`persist::PersistError`] —
    /// recovery never panics.
    ///
    /// Segments load one after another, each in one streaming pass:
    /// ~1 MiB chunks are checksummed on a second core while this thread
    /// decodes them and checks every index invariant, so an open costs
    /// roughly one read and one decode of the history.
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
            .filter_map(|(name, index)| SealedRun::new(index, Some(name)))
            .collect();
        Ok(TelemetryStore {
            runs,
            tail: recovered.delta,
            delta: OnceLock::new(),
            backing: Some(recovered.backing),
        })
    }

    /// Flushes every record appended since the last `sync` to stable
    /// storage and returns what was written. On the fast path this is
    /// one WAL frame and one fsync; when the run set changed (a seal and
    /// the ladder merges it triggered) it spills each *dirty* run as a
    /// fresh segment — unchanged segments are never rewritten — starts a
    /// fresh WAL holding only the delta tail, and atomically flips the
    /// manifest. `sync` only persists: it never merges runs, so the
    /// ladder's shape at the last seal is the shape on disk.
    ///
    /// Records are durable — guaranteed to survive a crash or kill —
    /// only once `sync` returns `Ok`. A failed sync may be retried and
    /// never duplicates records. `push`/`extend`/`seal` never touch
    /// disk. Returns [`persist::PersistError::NotDurable`] on a store
    /// that was not created by [`TelemetryStore::open`].
    pub fn sync(&mut self) -> Result<persist::SyncStats, persist::PersistError> {
        let Some(backing) = self.backing.as_mut() else {
            return Err(persist::PersistError::NotDurable);
        };
        let refs: Vec<persist::RunRef<'_>> = self
            .runs
            .iter()
            .map(|r| match &r.seg {
                Some(name) => persist::RunRef::Clean {
                    name,
                    rows: r.rows() as u64,
                    bounds: r.bounds,
                },
                None => persist::RunRef::Dirty { index: &r.index },
            })
            .collect();
        let (stats, assigned) = backing.sync(&refs, &self.tail)?;
        drop(refs);
        for (run, name) in self.runs.iter_mut().zip(assigned) {
            if let Some(name) = name {
                run.seg = Some(name);
            }
        }
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

    /// Always `Ok(())`: [`open`](TelemetryStore::open) already loaded
    /// and checked every segment. Kept because keabench calls it.
    pub fn verify(&self) -> Result<(), persist::PersistError> {
        Ok(())
    }

    /// Number of sealed runs currently live.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Same as [`run_count`](TelemetryStore::run_count): every run is
    /// held in memory. Kept because keabench calls it.
    pub fn resident_runs(&self) -> usize {
        self.run_count()
    }

    /// Appends one record into the delta buffer. The sealed runs are
    /// left untouched; only the delta mini-index is invalidated. Seals
    /// when the delta outgrows its threshold. A record the admission
    /// rule refuses is dropped, as in [`extend`](TelemetryStore::extend);
    /// returns whether the record was kept.
    pub fn push(&mut self, record: MachineHourRecord) -> bool {
        self.extend(std::iter::once(record)) == 0
    }

    /// Appends many records as one batch: the seal threshold is checked
    /// once per call, so a bulk load seals at most once.
    ///
    /// Every ingest path (`push`, `extend`, `merge`) applies the
    /// admission rule (`MachineHourRecord::admit`, which CSV ingest,
    /// segment load and WAL replay apply too), in every build profile:
    /// records carrying a NaN or infinite metric, or the hour `u64::MAX`
    /// (the store's span ends one past its last hour), are dropped and
    /// counted, so a poisoned producer (e.g. a lognormal sampler
    /// overflowing to `inf` under a degenerate calibration) can never
    /// surface later as NaN aggregates or a wrapped span. Returns the
    /// number of records dropped (zero for any healthy producer).
    pub fn extend(&mut self, records: impl IntoIterator<Item = MachineHourRecord>) -> usize {
        self.delta.take();
        let mut dropped = 0usize;
        for record in records {
            if record.admit().is_ok() {
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
    /// batch append — and therefore the same validation — as
    /// [`extend`](TelemetryStore::extend); returns the number of records
    /// dropped. A durable `other` merges like an in-memory one; its
    /// directory is not touched.
    pub fn merge(&mut self, other: TelemetryStore) -> usize {
        let mut dropped = 0;
        for run in &other.runs {
            dropped += self.extend(run.index.sorted.iter().copied());
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
        self.runs.iter().map(SealedRun::rows).sum::<usize>() + self.tail.len()
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
    /// mini-index when present) and restores the ladder invariant. The
    /// tail is taken, not cleared, so its allocation goes with it.
    fn seal_tail(&mut self) {
        let tail = std::mem::take(&mut self.tail);
        let delta = self.delta.take().unwrap_or_else(|| ColumnIndex::build(tail));
        let Some(run) = SealedRun::new(delta, None) else {
            return; // Empty delta: nothing to seal.
        };
        self.runs.push(run);
        self.ladder_compact();
    }

    /// Binary-counter compaction, the store's only compaction rule:
    /// merge the two newest runs while the elder of the pair is no
    /// larger than the newcomer. Run sizes then strictly decrease from
    /// oldest to newest, each record is re-merged `O(log n)` times over
    /// the store's lifetime, and a large old run is only rewritten when
    /// the history behind it has grown to its own size.
    fn ladder_compact(&mut self) {
        while self.runs.len() >= 2 {
            let at = self.runs.len() - 2;
            if self.runs[at].rows() > self.runs[at + 1].rows() {
                break;
            }
            self.merge_pair(at);
        }
    }

    /// Replaces the adjacent runs `at` and `at + 1` with their two-way
    /// merge (a dirty run), preserving order; a no-op unless both exist.
    /// Rebuilds the vector without panic-capable splicing.
    fn merge_pair(&mut self, at: usize) {
        let merged = match (self.runs.get(at), self.runs.get(at + 1)) {
            (Some(elder), Some(newer)) => ColumnIndex::merge(&elder.index, &newer.index),
            _ => return,
        };
        let mut merged = SealedRun::new(merged, None);
        let old = std::mem::take(&mut self.runs);
        for (i, run) in old.into_iter().enumerate() {
            if i == at {
                self.runs.extend(merged.take());
            } else if i != at + 1 {
                self.runs.push(run);
            }
        }
    }

    /// The delta mini-index, built on first use per mutation generation;
    /// `None` when the store is fully sealed.
    pub(crate) fn delta_index(&self) -> Option<&ColumnIndex> {
        if self.tail.is_empty() {
            return None;
        }
        Some(self.delta.get_or_init(|| ColumnIndex::build(self.tail.clone())))
    }

    /// Every sorted side of the store, oldest run first, delta last —
    /// the merge inputs of the unwindowed views and kernels.
    pub(crate) fn sides(&self) -> Vec<&ColumnIndex> {
        self.runs.iter().map(|r| &r.index).chain(self.delta_index()).collect()
    }

    /// The sealed runs that can contain hours `[start, end)`: those whose
    /// recorded `[min_hour, max_hour]` intersects the window (others are
    /// skipped without a probe), oldest first.
    pub(crate) fn window_runs(&self, start: u64, end: u64) -> impl Iterator<Item = &ColumnIndex> {
        self.runs
            .iter()
            .filter(move |r| end > start && r.bounds.0 < end && r.bounds.1 >= start)
            .map(|r| &r.index)
    }

    /// The sides that can contain hours `[start, end)`: the
    /// [`window_runs`](TelemetryStore::window_runs), then the delta.
    pub(crate) fn window_sides(&self, start: u64, end: u64) -> Vec<&ColumnIndex> {
        self.window_runs(start, end).chain(self.delta_index()).collect()
    }

    /// How many sealed runs hold a built daily roll-up.
    #[cfg(test)]
    pub(crate) fn warm_daily_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.index.daily.get().is_some()).count()
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
            .flat_map(|r| r.index.sorted.iter())
            .chain(self.tail.iter())
    }

    /// Records for one machine group, sorted by `(hour, machine)` — a
    /// k-way merge of per-run slices and the delta slice.
    pub fn by_group(&self, group: GroupKey) -> impl Iterator<Item = &MachineHourRecord> {
        let sides = self.sides();
        let rows = sides.iter().map(|s| s.group_range(group)).collect();
        merge_by_hour_machine(&sides, rows).map(move |(side, row)| &sides[side].sorted[row])
    }

    /// Records within `[start_hour, end_hour)`, side by side (sealed
    /// runs oldest first, the delta last), and within a side group by
    /// group, each group's slice in `(hour, machine)` order. The sides
    /// are chained, not merged, so a `(machine, hour)` key held by two
    /// sides yields the elder side's row first, but the whole is not in
    /// `(hour, machine)` order: every caller reduces the rows to sums,
    /// means or a t-test. Runs whose hour bounds miss the window are
    /// skipped, and within a side each group's window is found on its
    /// block table.
    pub fn by_hours(
        &self,
        start_hour: u64,
        end_hour: u64,
    ) -> impl Iterator<Item = &MachineHourRecord> {
        self.window_sides(start_hour, end_hour)
            .into_iter()
            .flat_map(move |s| s.window_rows(start_hour, end_hour).map(|row| &s.sorted[row]))
    }

    /// Records for a set of machines within `[start_hour, end_hour)` —
    /// the shape of a flighting measurement query — in the order of
    /// [`by_hours`](TelemetryStore::by_hours): side by side, elder
    /// first, then group by group, each group's slice in `(hour,
    /// machine)` order. Hour-bound pruning first, then each surviving
    /// side's window rows are tested for machine membership with one
    /// dense-id bitmap probe per row (no `BTreeSet` lookup per record).
    pub fn by_machines_and_hours<'a>(
        &'a self,
        machines: &BTreeSet<MachineId>,
        start_hour: u64,
        end_hour: u64,
    ) -> impl Iterator<Item = &'a MachineHourRecord> {
        let probes: Vec<_> = self
            .window_sides(start_hour, end_hour)
            .into_iter()
            .map(|s| (s, MachineBitmap::from_set(s, machines)))
            .collect();
        probes.into_iter().flat_map(move |(s, bitmap)| {
            s.window_rows(start_hour, end_hour)
                .filter(move |&row| bitmap.contains(s.machine_dense[row]))
                .map(|row| &s.sorted[row])
        })
    }

    /// The distinct machine groups present, sorted.
    pub fn groups(&self) -> Vec<GroupKey> {
        group_union(&self.sides())
    }

    /// The distinct machines present, sorted.
    pub fn machines(&self) -> Vec<MachineId> {
        machine_union(&self.sides())
    }

    /// Inclusive-exclusive hour span `(min, max+1)` covered by the
    /// store, or `None` when empty; `max + 1` fits because ingest
    /// refuses the hour `u64::MAX`. O(runs) over the recorded bounds,
    /// and the delta contributes an O(1) read when its mini-index is
    /// built or a single min/max pass over the (small) buffer when not;
    /// this never forces an index build.
    pub fn hour_span(&self) -> Option<(u64, u64)> {
        let runs_span = self.runs.iter().fold(None, |acc, r| match acc {
            None => Some(r.bounds),
            Some((lo, hi)) => Some((lo.min(r.bounds.0), hi.max(r.bounds.1))),
        });
        let delta_span = match self.delta.get() {
            Some(delta) => delta.hour_bounds(),
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
        &store.runs[0].index
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
    fn extend_drops_the_hour_whose_span_end_overflows() {
        // `hour_span` ends at `max + 1`: a record at `u64::MAX` would
        // overflow it (a panic in debug builds, a span ending at 0 in
        // release), so ingest drops and counts it like a non-finite one.
        let mut store = TelemetryStore::new();
        assert_eq!(
            store.extend(vec![rec(1, 0, 0, 1.0), rec(1, 0, u64::MAX, 1.0)]),
            1
        );
        assert!(!store.push(rec(2, 0, u64::MAX, 1.0)));
        assert!(store.push(rec(2, 0, u64::MAX - 1, 1.0)));
        assert_eq!(store.len(), 2);
        assert_eq!(store.hour_span(), Some((0, u64::MAX)));
        store.seal();
        assert_eq!(store.hour_span(), Some((0, u64::MAX)));
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
        // Run (cpu 1): sku 0 holds machine 1 at hours 0, 2, 4; sku 1
        // holds machine 2 at hour 0 and machine 3 at hours 1, 2. Delta
        // (cpu 2): machine 2 has moved to sku 0 (hour 1), machine 1
        // repeats hour 2 and adds hour 3; sku 1 gains hours 2 and 3.
        let run = [(1u32, 0u16, 4u64), (3, 1, 2), (1, 0, 0), (2, 1, 0), (3, 1, 1), (1, 0, 2)];
        for (m, sku, h) in run {
            store.push(rec(m, sku, h, 1.0));
        }
        store.seal();
        for (m, sku, h) in [(3u32, 1u16, 3u64), (1, 0, 3), (2, 0, 1), (4, 1, 2), (1, 0, 2)] {
            store.push(rec(m, sku, h, 2.0));
        }
        assert_eq!((store.run_count(), store.delta_len()), (1, 5));
        // (sku, hour, machine, cpu) of each row, in view order.
        type Key = (u16, u64, u32, f64);
        let keys = |rows: &mut dyn Iterator<Item = &MachineHourRecord>| -> Vec<Key> {
            rows.map(|r| (r.group.sku.0, r.hour, r.machine.0, r.metrics.cpu_utilization))
                .collect()
        };

        // by_group k-way merges the sides by (hour, machine); the run's
        // row of a duplicated key comes first.
        assert_eq!(
            keys(&mut store.by_group(GroupKey::new(SkuId(0), ScId(0)))),
            vec![
                (0, 0, 1, 1.0), (0, 1, 2, 2.0), (0, 2, 1, 1.0),
                (0, 2, 1, 2.0), (0, 3, 1, 2.0), (0, 4, 1, 1.0),
            ]
        );

        // The hour-window views chain the sides, elder first, and within
        // a side go group by group, each group in (hour, machine) order.
        assert_eq!(
            keys(&mut store.by_hours(0, 5)),
            vec![
                (0, 0, 1, 1.0), (0, 2, 1, 1.0), (0, 4, 1, 1.0), // run, sku 0
                (1, 0, 2, 1.0), (1, 1, 3, 1.0), (1, 2, 3, 1.0), // run, sku 1
                (0, 1, 2, 2.0), (0, 2, 1, 2.0), (0, 3, 1, 2.0), // delta, sku 0
                (1, 2, 4, 2.0), (1, 3, 3, 2.0), // delta, sku 1
            ]
        );
        // Duplicate (machine, hour) keys: the run's row still comes first.
        assert_eq!(
            keys(&mut store.by_hours(2, 3)),
            vec![(0, 2, 1, 1.0), (1, 2, 3, 1.0), (0, 2, 1, 2.0), (1, 2, 4, 2.0)]
        );
        // Machine 2 is found in both of its groups, in the same order.
        let moved: BTreeSet<MachineId> = [MachineId(1), MachineId(2)].into_iter().collect();
        assert_eq!(
            keys(&mut store.by_machines_and_hours(&moved, 0, 4)),
            vec![
                (0, 0, 1, 1.0), (0, 2, 1, 1.0), // run, sku 0
                (1, 0, 2, 1.0), // run, sku 1
                (0, 1, 2, 2.0), (0, 2, 1, 2.0), (0, 3, 1, 2.0), // delta, sku 0
            ]
        );
    }

    #[test]
    fn automatic_compaction_past_threshold() {
        let mut store = TelemetryStore::new();
        // One batch bigger than the 65,536-row floor seals once at the end.
        store.extend((0..70_000u64).map(|i| rec((i % 7) as u32, 0, i, i as f64)));
        assert!(store.is_sealed(), "bulk extend seals at call end");
        assert_eq!(store.run_count(), 1);
        // Small pushes stay in the delta…
        for i in 0..100u64 {
            store.push(rec(1, 0, 80_000 + i, 0.0));
        }
        assert!(!store.is_sealed());
        assert_eq!(store.delta_len(), 100);
        // …until the per-call check crosses the delta floor.
        store.extend((0..65_500u64).map(|i| rec(2, 0, 90_000 + i, 0.0)));
        assert!(store.is_sealed(), "threshold crossing seals");
        assert_eq!(store.len(), 135_600);
        assert_eq!(store.by_hours(0, 200_000).count(), 135_600);
        // The 65,600-row batch is smaller than the 70,000-row elder run,
        // so the ladder leaves them as two runs.
        assert_eq!(store.run_count(), 2);
    }

    /// Regression (previously: sealing copied the delta into the new
    /// run and then `clear`ed it, so every store kept its largest delta
    /// buffer allocated for life). The run is now built from the owned
    /// tail, and the allocation goes with it.
    #[test]
    fn seal_releases_the_delta_allocation() {
        let mut store = TelemetryStore::new();
        store.extend((0..5000u64).map(|i| rec((i % 7) as u32, 0, i, i as f64)));
        assert!(store.tail.capacity() >= 5000);
        store.seal();
        assert_eq!(store.tail.capacity(), 0);
        // A query-built mini-index is reused; the tail is released too.
        store.extend((0..5000u64).map(|i| rec((i % 7) as u32, 1, i, i as f64)));
        assert_eq!(store.by_hours(0, 5000).count(), 10_000);
        store.seal();
        assert_eq!(store.tail.capacity(), 0);
        assert_eq!(store.by_hours(0, 5000).count(), 10_000);
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
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.block_offsets, b.block_offsets);
        assert_eq!(a.machines, b.machines);
        assert_eq!(a.machine_dense, b.machine_dense);
        for m in Metric::ALL {
            assert_eq!(a.column(m), b.column(m), "{m}");
        }
    }

    /// The block table of `idx` is a CSR over the `(group, hour)` prefix
    /// of its rows: strictly ascending keys, each owning a non-empty,
    /// adjacent row range whose every row carries that key, together
    /// covering all `n` rows.
    fn assert_block_table(idx: &ColumnIndex, n: usize) {
        assert_eq!(idx.block_offsets.len(), idx.blocks.len() + 1);
        assert_eq!(idx.block_offsets.first(), Some(&0));
        assert_eq!(*idx.block_offsets.last().unwrap(), n);
        assert!(idx.blocks.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.block_offsets.windows(2).all(|w| w[0] < w[1]));
        for (&key, rows) in idx.blocks.iter().zip(idx.block_offsets.windows(2)) {
            assert!(idx.sorted[rows[0]..rows[1]].iter().all(|r| (r.group, r.hour) == key));
        }
        assert!(idx.sorted.windows(2).all(|w| {
            (w[0].group, w[0].hour, w[0].machine) <= (w[1].group, w[1].hour, w[1].machine)
        }));
        // A group's window is its blocks in the window, on every cut.
        for (group, rows) in idx.group_slices() {
            assert_eq!(idx.group_range(group), rows);
            for (start, end) in [(0, u64::MAX), (1, 3), (2, 3), (3, 9), (8, 100)] {
                let want: Vec<usize> = rows
                    .clone()
                    .filter(|&row| (start..end).contains(&idx.sorted[row].hour))
                    .collect();
                let got: Vec<usize> = idx.group_window(group, start, end).collect();
                assert_eq!(got, want, "group {group:?}, hours [{start}, {end})");
            }
        }
        let hours = idx.sorted.iter().map(|r| r.hour);
        assert_eq!(idx.hour_bounds(), hours.clone().min().zip(hours.max()));
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
        assert_block_table(idx, store.len());
        // Two groups × three hours.
        assert_eq!(idx.blocks.len(), 6);
        assert_eq!(idx.groups().len(), 2);
        // Columns are per-metric and full-length.
        assert!(Metric::ALL.iter().all(|&m| idx.column(m).len() == store.len()));
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
        assert_block_table(idx, store.len());
        // Hour 2 appears on both sides of sku 0 and sku 1: one block each.
        assert_eq!(idx.groups().len(), 3);
        assert_eq!(idx.blocks.iter().filter(|&&(_, h)| h == 2).count(), 3);
        for (row, r) in idx.sorted.iter().enumerate() {
            assert_eq!(idx.machines[idx.machine_dense[row] as usize], r.machine);
        }
        for metric in Metric::ALL {
            let col = idx.column(metric);
            for (row, r) in idx.sorted.iter().enumerate() {
                assert_eq!(col[row], metric.value(&r.metrics));
            }
        }
    }

    #[test]
    fn merge_handles_empty_sides() {
        let batch: Vec<MachineHourRecord> =
            (0..8u64).map(|i| rec(i as u32, 0, i, i as f64)).collect();
        let idx = ColumnIndex::build(batch);
        let empty = ColumnIndex::build(Vec::new());
        // Two empty sides → the empty index.
        assert!(ColumnIndex::merge(&empty, &empty).sorted.is_empty());
        // One empty side → the other side, on either hand.
        for one in [ColumnIndex::merge(&empty, &idx), ColumnIndex::merge(&idx, &empty)] {
            assert_eq!(one.sorted, idx.sorted);
            assert_eq!(one.blocks, idx.blocks);
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
