//! Aggregation kernels and scatter-view extraction.
//!
//! §5.2.1: "Each small dot corresponds to an observation aggregated at the
//! daily level for a machine" — model fitting happens over daily
//! machine-level aggregates, grouped by `(SC, SKU)`. The scatter view of
//! Figure 8 is the hourly disaggregated variant. Both are produced here,
//! along with the fleet series (Figure 1) and per-group utilization
//! (Figure 2) views the Performance Monitor serves.
//!
//! The roll-ups are **fused single-pass kernels** over the store's
//! sealed runs plus delta: each group is one contiguous slice per side,
//! k-way merged on the fly, so streaming appends never force a rebuild
//! before aggregation. A side has one sort order, `(group, hour,
//! machine)`, and one block table over its `(group, hour)` prefixes: a
//! group's hour window is two binary searches on it, and the fleet
//! series sums each block's contiguous column slice. Counts, sums, and
//! distinct-machine membership accumulate in flat arrays indexed by
//! *merged* dense machine ids (each side's dense ids remapped through a
//! shared table — no `BTreeMap` entry lookup per record).
//!
//! The daily roll-up re-sums only what changed: each sealed run keeps a
//! daily roll-up of its own rows, built on first use, and a day that one
//! run alone holds is read from it. Only the delta's days, days a
//! mid-day seal split between two sides, and a window's partial edge
//! days go through the hourly kernel; the parts are k-way merged by key.
//! Every `(machine, day)` is summed from the same rows in the same order
//! either way, so the output is bit-identical to a from-scratch roll-up.
//!
//! The month-scale variants — [`daily_group_aggregates_window`] and
//! [`hourly_fleet_series_window`] — take an `[start, end)` hour window
//! and consult only the runs whose recorded hour bounds intersect it:
//! against a long retained history, a one-day question touches the one
//! or two runs holding that day and leaves the rest alone.
//!
//! The per-group kernels parallelize by **work stealing**: scoped worker
//! threads pull group indexes off a shared atomic cursor, so one giant
//! group occupies one worker while the rest drain the remaining groups —
//! the skew case a contiguous count-based partition serializes. Results
//! land in per-group slots, so output order is identical to a serial loop
//! for any worker count and any interleaving. The pre-columnar
//! implementations survive in [`reference`](mod@reference) as the
//! executable specification and benchmark baseline.

// kea-lint: allow-file(index-in-library) — dense aggregation kernels: rows
// come from the store's own CSR offset tables and every bucket index is a
// dense id interned/remapped by the same index (bounds pinned by store
// tests).

use crate::metric::Metric;
use crate::record::{GroupKey, MachineId};
use crate::store::{
    group_union, machine_union, merge_by_hour_machine, remap_into, ColumnIndex, TelemetryStore,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One daily aggregate for one machine: per-metric means over the hours
/// observed that day.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyAggregate {
    /// The machine.
    pub machine: MachineId,
    /// Its group.
    pub group: GroupKey,
    /// Day index.
    pub day: u64,
    /// Hours that contributed.
    pub hours_observed: u32,
    /// Mean of each metric over the contributing hours, indexed in
    /// [`Metric::ALL`] order.
    means: [f64; Metric::ALL.len()],
}

impl DailyAggregate {
    /// The daily mean of `metric` — a constant-time array read via
    /// [`Metric::index`].
    pub fn mean(&self, metric: Metric) -> f64 {
        self.means
            .get(metric.index())
            .copied()
            .unwrap_or(f64::NAN)
    }
}

/// Per-group fleet composition and utilization (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupUtilization {
    /// The machine group.
    pub group: GroupKey,
    /// Number of distinct machines observed in the group.
    pub machines: usize,
    /// Mean CPU utilization over all machine-hours, percent.
    pub mean_cpu_utilization: f64,
    /// Mean running containers.
    pub mean_running_containers: f64,
}

/// Runs `work(scratch, group_index)` over every group in `0..n_groups`
/// and returns the results in group order, work-stealing across at most
/// `n_workers` scoped threads (a count of 0 or 1 runs the loop inline on
/// the caller).
/// Each worker owns one `scratch` (built by `make_scratch`, reused
/// across the groups it claims) and pulls the next unclaimed group off a
/// shared atomic cursor. One pathologically large group therefore pins
/// exactly one worker while the others drain the rest — a contiguous
/// count-based split would serialize everything sharing its partition.
/// Results land in per-group slots, so the output is identical to a
/// serial loop for any worker count and any steal interleaving, and a
/// worker's panic is re-raised on the caller. The roll-ups here, the
/// What-if Engine's per-group fits and the simulator's per-domain
/// federated runs all fan out through it.
pub fn run_group_partitions<T: Send, S>(
    n_groups: usize,
    n_workers: usize,
    make_scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let n_workers = n_workers.clamp(1, n_groups.max(1));
    if n_workers == 1 {
        let mut scratch = make_scratch();
        return (0..n_groups).map(|gi| work(&mut scratch, gi)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n_groups, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = make_scratch();
                    let mut claimed: Vec<(usize, T)> = Vec::new();
                    loop {
                        let gi = cursor.fetch_add(1, Ordering::Relaxed);
                        if gi >= n_groups {
                            break;
                        }
                        claimed.push((gi, work(&mut scratch, gi)));
                    }
                    claimed
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(claimed) => {
                    for (gi, result) in claimed {
                        slots[gi] = Some(result);
                    }
                }
                // A group whose worker panicked must not drop out of
                // the output unnoticed.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().flatten().collect()
}

/// Worker count for the roll-ups: one per available core.
fn roll_up_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The merged dense machine-id space across every side: the combined
/// distinct-machine list plus one remap table per side translating that
/// side's dense ids into merged ids.
struct MergedMachines {
    ids: Vec<MachineId>,
    maps: Vec<Vec<u32>>,
}

fn merged_machines(sides: &[&ColumnIndex]) -> MergedMachines {
    let ids = machine_union(sides);
    let maps = sides.iter().map(|s| remap_into(&s.machines, &ids)).collect();
    MergedMachines { ids, maps }
}

/// Per-worker scratch of the daily roll-up kernel: a count and a
/// metric-row sum per merged dense machine id, plus the ids touched this
/// day (so a day boundary resets O(touched), not O(n_machines)).
struct DailyScratch {
    counts: Vec<u32>,
    sums: Vec<[f64; Metric::ALL.len()]>,
    touched: Vec<u32>,
}

/// Every hour a record may carry: the window of an unwindowed roll-up.
pub(crate) const ALL_HOURS: (u64, u64) = (0, u64::MAX);

/// Rolls the store up into per-machine, per-day aggregates (the training
/// rows of §5.2.1), sorted by `(group, machine, day)`.
///
/// A retune re-sums only what changed: a day that one sealed run alone
/// holds is read from that run's own cached daily roll-up, built the
/// first time a roll-up needs it and dropped with the run when the
/// ladder merges it. Every other day (the delta's, and a day that a
/// mid-day seal split between two sides) is summed from the hourly rows
/// by the kernel below, and the parts are k-way merged by key. Each
/// `(machine, day)` is summed from the same rows in the same order either
/// way, so the output is bit-identical to rolling up every side from
/// scratch.
///
/// Kernel shape: within a group every side's slice is hour-major, so the
/// k-cursor merge delivers days as contiguous runs; each day's rows
/// accumulate into flat `(count, sums)` buckets indexed by merged dense
/// machine id, and only touched buckets are drained and reset at the day
/// boundary. Groups are claimed by work-stealing workers.
pub fn daily_group_aggregates(store: &TelemetryStore) -> Vec<DailyAggregate> {
    daily_rollup(store, ALL_HOURS)
}

/// [`daily_group_aggregates`] restricted to hours `[start_hour,
/// end_hour)`. Sealed runs whose recorded hour bounds miss the window
/// are skipped, so a day-scale question against a month-scale history
/// touches only the sides that can answer it. A day lying whole inside
/// the window comes from a run's cached roll-up under the same rule as
/// the unwindowed roll-up; the window's partial edge days are summed
/// from their hours inside the window.
pub fn daily_group_aggregates_window(
    store: &TelemetryStore,
    start_hour: u64,
    end_hour: u64,
) -> Vec<DailyAggregate> {
    daily_rollup(store, (start_hour, end_hour))
}

/// The cache-aware core of both daily roll-ups over hours `[start, end)`.
fn daily_rollup(store: &TelemetryStore, (start, end): (u64, u64)) -> Vec<DailyAggregate> {
    if end <= start {
        return Vec::new();
    }
    let runs: Vec<&ColumnIndex> = store.window_runs(start, end).collect();
    let delta = store.delta_index();
    let plan = DayPlan::new(&runs, delta, (start, end));
    let raw = if plan.raw.is_empty() {
        Vec::new()
    } else {
        let raw_sides: Vec<&ColumnIndex> = runs
            .iter()
            .copied()
            .chain(delta)
            .filter(|s| {
                s.hour_bounds()
                    .is_some_and(|(lo, hi)| plan.raw.iter().any(|&(a, b)| lo < b && hi >= a))
            })
            .collect();
        daily_core(&raw_sides, &plan.raw)
    };
    let every_day = [(0, u64::MAX)];
    let mut parts: Vec<Part<'_>> = vec![(&raw, &every_day)];
    for (run, days) in runs.iter().zip(&plan.cached) {
        if !days.is_empty() {
            parts.push((run.daily(), days));
        }
    }
    merge_parts(&parts)
}

/// Where each day of a roll-up over an hour window comes from.
struct DayPlan {
    /// Per run, the half-open day ranges its cached roll-up serves: days
    /// that lie whole inside the window and that no other side holds.
    cached: Vec<Vec<(u64, u64)>>,
    /// Ascending, disjoint hour windows for [`daily_core`] over the
    /// sides: the delta's days, days two sides share, and the window's
    /// partial edge days, each clipped to the window.
    raw: Vec<(u64, u64)>,
}

impl DayPlan {
    /// Splits the days of `[start, end)` between the runs' caches and
    /// the raw kernel. A side's day span runs from its first hour's day
    /// to its last hour's, so between two consecutive span edges the set
    /// of sides holding a day does not change.
    fn new(runs: &[&ColumnIndex], delta: Option<&ColumnIndex>, (start, end): (u64, u64)) -> Self {
        let spans: Vec<(u64, u64)> = runs
            .iter()
            .copied()
            .chain(delta)
            .map(|s| s.hour_bounds().map_or((0, 0), |(lo, hi)| (lo / 24, hi / 24 + 1)))
            .collect();
        let whole = (start.div_ceil(24), end / 24);
        let mut cuts: Vec<u64> = spans
            .iter()
            .flat_map(|&(lo, hi)| [lo, hi])
            .chain([whole.0, whole.1])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut cached = vec![Vec::new(); runs.len()];
        let mut raw_days = Vec::new();
        for cut in cuts.windows(2) {
            let days = (cut[0], cut[1]);
            let mut holders =
                (0..spans.len()).filter(|&i| spans[i].0 <= days.0 && days.0 < spans[i].1);
            let Some(only) = holders.next() else {
                continue;
            };
            let whole_days = whole.0 <= days.0 && days.1 <= whole.1;
            // `cached` has no slot for the delta, the last span: its days
            // are always summed from rows.
            match (holders.next(), cached.get_mut(only)) {
                (None, Some(run_days)) if whole_days => push_range(run_days, days),
                _ => push_range(&mut raw_days, days),
            }
        }
        let raw = raw_days
            .into_iter()
            .filter_map(|(lo, hi)| {
                let hours = (
                    lo.saturating_mul(24).max(start),
                    hi.saturating_mul(24).min(end),
                );
                (hours.0 < hours.1).then_some(hours)
            })
            .collect();
        DayPlan { cached, raw }
    }
}

/// Appends the half-open range `r` to `ranges`, extending the last one
/// when the two touch.
fn push_range(ranges: &mut Vec<(u64, u64)>, r: (u64, u64)) {
    match ranges.last_mut() {
        Some(last) if last.1 == r.0 => last.1 = r.1,
        _ => ranges.push(r),
    }
}

/// One part of a roll-up: aggregates sorted by `(group, machine, day)`,
/// and the half-open day ranges to keep from them.
type Part<'a> = (&'a [DailyAggregate], &'a [(u64, u64)]);

/// K-way merge of roll-up parts, keeping from each part the entries
/// whose day lies in one of its day ranges. The parts hold disjoint
/// days, so no key repeats and the merge needs no sort. A machine's
/// days usually come from each part in one stretch (a run holds
/// consecutive days), so each pick copies the whole stretch that sorts
/// below every other part's head.
fn merge_parts(parts: &[Part<'_>]) -> Vec<DailyAggregate> {
    fn kept<'a>(&(rows, days): &Part<'a>) -> impl Iterator<Item = &'a DailyAggregate> + 'a {
        rows.iter()
            .filter(move |a| days.iter().any(|&(lo, hi)| lo <= a.day && a.day < hi))
    }
    type Key = (GroupKey, MachineId, u64);
    let key = |a: &DailyAggregate| -> Key { (a.group, a.machine, a.day) };
    // Every part's length bounds the output; counting exactly would cost
    // another pass over the parts.
    let mut out = Vec::with_capacity(parts.iter().map(|(rows, _)| rows.len()).sum());
    let mut cursors: Vec<_> = parts.iter().map(|p| kept(p).peekable()).collect();
    loop {
        // The part with the smallest head, and the smallest other head.
        let mut best: Option<(usize, Key)> = None;
        let mut bound: Option<Key> = None;
        for (i, c) in cursors.iter_mut().enumerate() {
            let Some(k) = c.peek().map(|a| key(a)) else {
                continue;
            };
            let other = match best {
                Some((_, b)) if b < k => k,
                _ => match best.replace((i, k)) {
                    Some((_, b)) => b,
                    None => continue,
                },
            };
            bound = Some(bound.map_or(other, |b| b.min(other)));
        }
        let Some((i, _)) = best else { break };
        while let Some(a) = cursors[i].next_if(|a| bound.is_none_or(|b| key(a) < b)) {
            out.push(a.clone());
        }
    }
    out
}

/// Rolls `sides` up over the hour `windows` (ascending and disjoint),
/// from their hourly rows: the kernel behind both roll-ups' uncached
/// days and behind each run's cached roll-up ([`ColumnIndex::daily`]).
pub(crate) fn daily_core(sides: &[&ColumnIndex], windows: &[(u64, u64)]) -> Vec<DailyAggregate> {
    let machines = merged_machines(sides);
    let groups = group_union(sides);
    let n_machines = machines.ids.len();
    run_group_partitions(
        groups.len(),
        roll_up_workers(),
        || DailyScratch {
            counts: vec![0u32; n_machines],
            sums: vec![[0.0f64; Metric::ALL.len()]; n_machines],
            touched: Vec::new(),
        },
        |scratch, gi| {
            let group = groups[gi];
            let mut out: Vec<DailyAggregate> = Vec::new();
            let mut current_day = u64::MAX; // no day open yet
            for &(start, end) in windows {
                let rows = sides
                    .iter()
                    .map(|s| s.group_window(group, start, end))
                    .collect();
                for (side, row) in merge_by_hour_machine(sides, rows) {
                    let r = &sides[side].sorted[row];
                    let dense =
                        machines.maps[side][sides[side].machine_dense[row] as usize] as usize;
                    let day = r.hour / 24;
                    if day != current_day {
                        if current_day != u64::MAX {
                            drain_day(group, current_day, &machines.ids, scratch, &mut out);
                        }
                        current_day = day;
                    }
                    if scratch.counts[dense] == 0 {
                        scratch.touched.push(dense as u32);
                    }
                    scratch.counts[dense] += 1;
                    let row_values = Metric::row_of(&r.metrics);
                    for (acc, v) in scratch.sums[dense].iter_mut().zip(row_values) {
                        *acc += v;
                    }
                }
            }
            if current_day != u64::MAX {
                drain_day(group, current_day, &machines.ids, scratch, &mut out);
            }
            // Day-major production order → the documented (machine, day)
            // order within the group.
            out.sort_unstable_by_key(|a| (a.machine, a.day));
            out
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Drains every touched daily bucket into `out` and resets the scratch.
fn drain_day(
    group: GroupKey,
    day: u64,
    machine_ids: &[MachineId],
    scratch: &mut DailyScratch,
    out: &mut Vec<DailyAggregate>,
) {
    for &dense in scratch.touched.iter() {
        let dense = dense as usize;
        let count = scratch.counts[dense];
        let mut means = scratch.sums[dense];
        for v in &mut means {
            *v /= count as f64;
        }
        out.push(DailyAggregate {
            machine: machine_ids[dense],
            group,
            day,
            hours_observed: count,
            means,
        });
        scratch.counts[dense] = 0;
        scratch.sums[dense] = [0.0; Metric::ALL.len()];
    }
    scratch.touched.clear();
}

/// Fleet-wide mean of `metric` per hour — the Figure 1 series, with one
/// `(hour, mean)` point for every hour of the store's span (0.0 for hours
/// no machine reported). Empty when the store is empty. The window
/// variant over every hour a record may carry.
pub fn hourly_fleet_series(store: &TelemetryStore, metric: Metric) -> Vec<(u64, f64)> {
    hourly_fleet_series_window(store, metric, ALL_HOURS.0, ALL_HOURS.1)
}

/// [`hourly_fleet_series`] restricted to hours `[start_hour, end_hour)`
/// — one point per hour of the window's intersection with the store's
/// span (hours inside the intersection that no machine reported are
/// zero-filled, exactly as in the full series). Sealed runs whose
/// recorded hour bounds miss the window are skipped: this is the query
/// shape the multi-run layout serves, a one-day dashboard panel against
/// a month of retained fleet history.
///
/// Kernel shape: every `(group, hour)` block of every side is one
/// contiguous slice of that side's metric column, so each hour's sum is
/// the sum of its blocks' slice sums (side by side, group by group) and
/// its count the sum of their lengths — no per-record map lookups, no
/// gathers and no predicate scans.
pub fn hourly_fleet_series_window(
    store: &TelemetryStore,
    metric: Metric,
    start_hour: u64,
    end_hour: u64,
) -> Vec<(u64, f64)> {
    // `hour_span` reads the recorded run bounds — no row is scanned.
    let Some((lo, hi)) = store.hour_span() else {
        return Vec::new();
    };
    if end_hour <= start_hour {
        return Vec::new();
    }
    // Guarded above: end_hour >= 1, and hi = max + 1 >= 1 because ingest
    // refuses the hour u64::MAX, so neither `- 1` wraps.
    let start = lo.max(start_hour);
    let end_inclusive = (hi - 1).min(end_hour - 1);
    if end_inclusive < start {
        return Vec::new();
    }
    // Per hour of the span: the metric's sum and row count.
    let mut acc = vec![(0.0f64, 0usize); (end_inclusive - start + 1) as usize];
    for s in store.window_sides(start_hour, end_hour) {
        let column = s.column(metric);
        for (&(_, hour), rows) in s.blocks.iter().zip(s.block_offsets.windows(2)) {
            if hour < start || hour > end_inclusive {
                continue;
            }
            let (sum, n) = &mut acc[(hour - start) as usize];
            *sum += column[rows[0]..rows[1]].iter().sum::<f64>();
            *n += rows[1] - rows[0];
        }
    }
    (start..=end_inclusive)
        .zip(acc)
        .map(|(hour, (sum, n))| (hour, if n == 0 { 0.0 } else { sum / n as f64 }))
        .collect()
}

/// Machine counts and mean utilization per group — Figure 2's two panels,
/// sorted by group key (i.e. hardware generation). Empty when the store
/// is empty.
///
/// Kernel shape: per group, the CPU and container means are contiguous
/// column-slice sums over every side, and the distinct-machine count is a
/// seen-bitmap over merged dense machine ids (reset via the touched
/// list). Groups are claimed by work-stealing workers.
pub fn group_utilization(store: &TelemetryStore) -> Vec<GroupUtilization> {
    let sides = store.sides();
    let machines = merged_machines(&sides);
    let groups = group_union(&sides);
    let n_machines = machines.ids.len();
    let cpus: Vec<&[f64]> = sides.iter().map(|s| s.column(Metric::CpuUtilization)).collect();
    let containers: Vec<&[f64]> = sides
        .iter()
        .map(|s| s.column(Metric::AverageRunningContainers))
        .collect();
    // With a single side the merged machine space IS that side's, so the
    // remap is the identity — skip the indirection on the hot sealed
    // path.
    let identity = sides.len() == 1;
    run_group_partitions(
        groups.len(),
        roll_up_workers(),
        || (vec![false; n_machines], Vec::<u32>::new()),
        |(seen, touched), gi| {
            let group = groups[gi];
            let mut n = 0;
            let mut cpu_sum = 0.0f64;
            let mut containers_sum = 0.0f64;
            for (i, side) in sides.iter().enumerate() {
                let rows = side.group_range(group);
                n += rows.len();
                for row in rows.clone() {
                    let raw = side.machine_dense[row] as usize;
                    let dense = if identity {
                        raw
                    } else {
                        machines.maps[i][raw] as usize
                    };
                    if !seen[dense] {
                        seen[dense] = true;
                        touched.push(dense as u32);
                    }
                }
                cpu_sum += cpus[i][rows.clone()].iter().sum::<f64>();
                containers_sum += containers[i][rows].iter().sum::<f64>();
            }
            let result = GroupUtilization {
                group,
                machines: touched.len(),
                mean_cpu_utilization: cpu_sum / n as f64,
                mean_running_containers: containers_sum / n as f64,
            };
            for &dense in touched.iter() {
                seen[dense as usize] = false;
            }
            touched.clear();
            result
        },
    )
}

/// Machines per group with each machine counted once, in the group of
/// its latest record (a tie on the hour goes to the greater group key):
/// the `n_k` of the re-balancing LP. A machine that a flight moved
/// between groups counts where it ended up, while [`group_utilization`]
/// (Figure 2) counts it in every group it was seen in. Sorted by group
/// key; a group whose machines all moved on is absent.
///
/// Kernel shape: one pass over every side's rows keeps the latest
/// `(hour, group)` per merged dense machine id in a flat array (the
/// group's rank is looked up once per side and group, never per
/// record), then one pass over the machines counts them.
pub fn latest_group_counts(store: &TelemetryStore) -> Vec<(GroupKey, usize)> {
    let sides = store.sides();
    let machines = merged_machines(&sides);
    let groups = group_union(&sides);
    // Per merged dense id: the hour and 1 + group rank of its latest
    // record; (0, 0) until one is seen.
    let mut latest = vec![(0u64, 0usize); machines.ids.len()];
    for (side, map) in sides.iter().zip(&machines.maps) {
        for (group, rows) in side.group_slices() {
            let rank = 1 + groups.partition_point(|g| *g < group);
            for row in rows {
                let seen = &mut latest[map[side.machine_dense[row] as usize] as usize];
                *seen = (*seen).max((side.sorted[row].hour, rank));
            }
        }
    }
    let mut counts = vec![0usize; groups.len()];
    for &(_, rank) in &latest {
        if let Some(n) = rank.checked_sub(1).and_then(|gi| counts.get_mut(gi)) {
            *n += 1;
        }
    }
    groups
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// One point of a scatter view (Figure 8): an `(x, y)` metric pair for one
/// machine-hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// The machine observed.
    pub machine: MachineId,
    /// Hour of observation.
    pub hour: u64,
    /// Value of the x-axis metric.
    pub x: f64,
    /// Value of the y-axis metric.
    pub y: f64,
}

/// Extracts the scatter view of `(x_metric, y_metric)` for one group —
/// "the scatter view depicts the data in a disaggregated way with each
/// point corresponding to one observation for a machine during one hour"
/// (§4.1). Points come out in `(hour, machine)` order (the merged
/// by-group view order).
pub fn scatter(
    store: &TelemetryStore,
    group: GroupKey,
    x_metric: Metric,
    y_metric: Metric,
) -> Vec<ScatterPoint> {
    store
        .by_group(group)
        .map(|r| ScatterPoint {
            machine: r.machine,
            hour: r.hour,
            x: x_metric.value(&r.metrics),
            y: y_metric.value(&r.metrics),
        })
        .collect()
}

/// Pre-columnar roll-ups over the flat [`reference
/// store`](crate::store::reference::TelemetryStore), preserved as the
/// executable specification: per-record `BTreeMap` entry lookups for the
/// bucketed views and full predicate scans for the filtered ones. The
/// agreement suite pins these against the multi-run kernels to 1e-9 at
/// every intermediate state of interleaved mutate/query sequences; the
/// `telemetry_scan` and `telemetry_stream` benches report the speedup.
pub mod reference {
    use super::{DailyAggregate, GroupUtilization};
    use crate::metric::Metric;
    use crate::record::{GroupKey, MachineId};
    use crate::store::reference::TelemetryStore;
    use std::collections::BTreeMap;

    /// Per-machine, per-day aggregates via a `(group, machine, day)` →
    /// `(count, sums)` tree with one entry lookup per record.
    pub fn daily_group_aggregates(store: &TelemetryStore) -> Vec<DailyAggregate> {
        daily_group_aggregates_window(store, 0, u64::MAX)
    }

    /// The windowed variant: the same tree roll-up over records whose
    /// hour falls in `[start_hour, end_hour)` — a predicate per record,
    /// exactly what the pruned kernel must agree with.
    pub fn daily_group_aggregates_window(
        store: &TelemetryStore,
        start_hour: u64,
        end_hour: u64,
    ) -> Vec<DailyAggregate> {
        let mut acc: BTreeMap<(GroupKey, MachineId, u64), (u32, [f64; Metric::ALL.len()])> =
            BTreeMap::new();
        for r in store.iter() {
            if r.hour < start_hour || r.hour >= end_hour {
                continue;
            }
            let entry = acc
                .entry((r.group, r.machine, r.day()))
                .or_insert((0, [0.0; Metric::ALL.len()]));
            entry.0 += 1;
            for (i, metric) in Metric::ALL.iter().enumerate() {
                entry.1[i] += metric.value(&r.metrics);
            }
        }
        acc.into_iter()
            .map(|((group, machine, day), (count, sums))| {
                let mut means = sums;
                for v in &mut means {
                    *v /= count as f64;
                }
                DailyAggregate {
                    machine,
                    group,
                    day,
                    hours_observed: count,
                    means,
                }
            })
            .collect()
    }

    /// Fleet-wide hourly mean series via an hour-keyed `BTreeMap` with
    /// one lookup per record.
    pub fn hourly_fleet_series(store: &TelemetryStore, metric: Metric) -> Vec<(u64, f64)> {
        hourly_fleet_series_window(store, metric, 0, u64::MAX)
    }

    /// The windowed variant: the series over the intersection of the
    /// store's span with `[start_hour, end_hour)`.
    pub fn hourly_fleet_series_window(
        store: &TelemetryStore,
        metric: Metric,
        start_hour: u64,
        end_hour: u64,
    ) -> Vec<(u64, f64)> {
        let Some((lo, hi)) = store.hour_span() else {
            return Vec::new();
        };
        let start = lo.max(start_hour);
        let end = hi.min(end_hour);
        if end <= start {
            return Vec::new();
        }
        let mut sums: BTreeMap<u64, (f64, u64)> = (start..end).map(|h| (h, (0.0, 0))).collect();
        for rec in store.iter() {
            if let Some(e) = sums.get_mut(&rec.hour) {
                e.0 += metric.value(&rec.metrics);
                e.1 += 1;
            }
        }
        sums.into_iter()
            .map(|(h, (sum, n))| (h, if n == 0 { 0.0 } else { sum / n as f64 }))
            .collect()
    }

    /// Per-group machine counts and means via a group-keyed `BTreeMap`
    /// holding a `BTreeSet` of machine ids per group.
    pub fn group_utilization(store: &TelemetryStore) -> Vec<GroupUtilization> {
        let mut acc: BTreeMap<GroupKey, (std::collections::BTreeSet<u32>, f64, f64, u64)> =
            BTreeMap::new();
        for rec in store.iter() {
            let e = acc.entry(rec.group).or_default();
            e.0.insert(rec.machine.0);
            e.1 += rec.metrics.cpu_utilization;
            e.2 += rec.metrics.avg_running_containers;
            e.3 += 1;
        }
        acc.into_iter()
            .map(|(group, (machines, util, containers, n))| GroupUtilization {
                group,
                machines: machines.len(),
                mean_cpu_utilization: util / n as f64,
                mean_running_containers: containers / n as f64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MachineHourRecord, MetricValues, ScId, SkuId};

    fn store_with_two_days() -> TelemetryStore {
        let mut store = TelemetryStore::new();
        let group = GroupKey::new(SkuId(1), ScId(0));
        for hour in 0..48u64 {
            store.push(MachineHourRecord {
                machine: MachineId(7),
                group,
                hour,
                metrics: MetricValues {
                    cpu_utilization: if hour < 24 { 50.0 } else { 70.0 },
                    tasks_finished: hour as f64,
                    ..Default::default()
                },
            });
        }
        store
    }

    #[test]
    fn daily_aggregates_split_by_day() {
        let store = store_with_two_days();
        let daily = daily_group_aggregates(&store);
        assert_eq!(daily.len(), 2);
        assert_eq!(daily[0].day, 0);
        assert_eq!(daily[1].day, 1);
        assert_eq!(daily[0].hours_observed, 24);
        assert_eq!(daily[0].mean(Metric::CpuUtilization), 50.0);
        assert_eq!(daily[1].mean(Metric::CpuUtilization), 70.0);
        // Mean of 0..24 = 11.5; of 24..48 = 35.5.
        assert!((daily[0].mean(Metric::NumberOfTasks) - 11.5).abs() < 1e-12);
        assert!((daily[1].mean(Metric::NumberOfTasks) - 35.5).abs() < 1e-12);
    }

    #[test]
    fn daily_aggregates_separate_machines_and_groups() {
        let mut store = TelemetryStore::new();
        for (m, sku) in [(1u32, 0u16), (2, 0), (3, 1)] {
            store.push(MachineHourRecord {
                machine: MachineId(m),
                group: GroupKey::new(SkuId(sku), ScId(0)),
                hour: 0,
                metrics: MetricValues::default(),
            });
        }
        let daily = daily_group_aggregates(&store);
        assert_eq!(daily.len(), 3);
        // Sorted by (group, machine, day): sku 0 machines first.
        assert_eq!(daily[0].machine, MachineId(1));
        assert_eq!(daily[2].group.sku, SkuId(1));
    }

    #[test]
    fn daily_aggregates_sorted_by_group_machine_day() {
        // Machines interleaved across days and groups, inserted shuffled.
        let mut store = TelemetryStore::new();
        for (m, sku, hour) in [
            (2u32, 1u16, 30u64),
            (1, 0, 0),
            (2, 1, 2),
            (1, 0, 26),
            (3, 0, 1),
            (3, 0, 49),
        ] {
            store.push(MachineHourRecord {
                machine: MachineId(m),
                group: GroupKey::new(SkuId(sku), ScId(0)),
                hour,
                metrics: MetricValues::default(),
            });
        }
        let daily = daily_group_aggregates(&store);
        let keys: Vec<_> = daily.iter().map(|a| (a.group, a.machine, a.day)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "output must be (group, machine, day)-sorted");
        assert_eq!(daily.len(), 6);
    }

    #[test]
    fn daily_aggregates_span_runs_and_delta() {
        // A machine's day split across a sealed run and the delta must
        // roll up into ONE daily row covering both sides.
        let mut store = TelemetryStore::new();
        let group = GroupKey::new(SkuId(0), ScId(0));
        for hour in 0..12u64 {
            store.push(MachineHourRecord {
                machine: MachineId(1),
                group,
                hour,
                metrics: MetricValues {
                    tasks_finished: 10.0,
                    ..Default::default()
                },
            });
        }
        store.seal();
        for hour in 12..24u64 {
            store.push(MachineHourRecord {
                machine: MachineId(1),
                group,
                hour,
                metrics: MetricValues {
                    tasks_finished: 30.0,
                    ..Default::default()
                },
            });
        }
        assert!(!store.is_sealed(), "day must straddle run and delta");
        let daily = daily_group_aggregates(&store);
        assert_eq!(daily.len(), 1);
        assert_eq!(daily[0].hours_observed, 24);
        assert!((daily[0].mean(Metric::NumberOfTasks) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_daily_aggregates_match_reference() {
        // Three sealed runs over disjoint day ranges plus a delta; every
        // window shape must agree with the reference predicate scan.
        let mut store = TelemetryStore::new();
        let mut flat = crate::store::reference::TelemetryStore::new();
        let mut push = |store: &mut TelemetryStore, m: u32, sku: u16, hour: u64, cpu: f64| {
            let r = MachineHourRecord {
                machine: MachineId(m),
                group: GroupKey::new(SkuId(sku), ScId(0)),
                hour,
                metrics: MetricValues {
                    cpu_utilization: cpu,
                    tasks_finished: hour as f64,
                    ..Default::default()
                },
            };
            store.push(r);
            flat.push(r);
        };
        for (batch, base) in [(0u64, 0u64), (1, 100), (2, 200)] {
            for m in 0..6u32 {
                for h in 0..30u64 {
                    push(&mut store, m, (m % 2) as u16, base + h, (batch + m as u64) as f64);
                }
            }
            store.seal();
        }
        push(&mut store, 9, 1, 250, 5.0);
        for (s, e) in [(0u64, 24u64), (90, 130), (200, 1000), (240, 260), (50, 60), (0, u64::MAX)] {
            let pruned = daily_group_aggregates_window(&store, s, e);
            let spec = reference::daily_group_aggregates_window(&flat, s, e);
            assert_eq!(pruned.len(), spec.len(), "window [{s}, {e})");
            for (a, b) in pruned.iter().zip(&spec) {
                assert_eq!((a.group, a.machine, a.day), (b.group, b.machine, b.day));
                assert_eq!(a.hours_observed, b.hours_observed);
                for m in Metric::ALL {
                    assert!((a.mean(m) - b.mean(m)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn scatter_extracts_pairs() {
        let store = store_with_two_days();
        let group = GroupKey::new(SkuId(1), ScId(0));
        let pts = scatter(&store, group, Metric::CpuUtilization, Metric::NumberOfTasks);
        assert_eq!(pts.len(), 48);
        assert_eq!(pts[0].x, 50.0);
        assert_eq!(pts[0].y, 0.0);
        assert_eq!(pts[47].x, 70.0);
        assert_eq!(pts[47].y, 47.0);
    }

    #[test]
    fn hourly_series_fills_gaps_with_zero() {
        let mut store = TelemetryStore::new();
        let group = GroupKey::new(SkuId(0), ScId(0));
        for (m, hour, cpu) in [(1u32, 3u64, 10.0), (2, 3, 30.0), (1, 6, 50.0)] {
            store.push(MachineHourRecord {
                machine: MachineId(m),
                group,
                hour,
                metrics: MetricValues {
                    cpu_utilization: cpu,
                    ..Default::default()
                },
            });
        }
        let series = hourly_fleet_series(&store, Metric::CpuUtilization);
        assert_eq!(
            series,
            vec![(3, 20.0), (4, 0.0), (5, 0.0), (6, 50.0)],
            "span-covering series with zero-filled gaps"
        );
        assert!(hourly_fleet_series(&TelemetryStore::new(), Metric::CpuUtilization).is_empty());
    }

    #[test]
    fn hourly_series_merges_run_and_delta_hours() {
        // Run covers hours {2, 5}; delta covers {4, 5, 8}. The merged
        // series spans 2..=8 with hour 5 averaging across both sides.
        let mut store = TelemetryStore::new();
        let group = GroupKey::new(SkuId(0), ScId(0));
        let push = |store: &mut TelemetryStore, hour: u64, cpu: f64| {
            store.push(MachineHourRecord {
                machine: MachineId(hour as u32), // distinct machines
                group,
                hour,
                metrics: MetricValues {
                    cpu_utilization: cpu,
                    ..Default::default()
                },
            });
        };
        push(&mut store, 2, 10.0);
        push(&mut store, 5, 20.0);
        store.seal();
        push(&mut store, 4, 40.0);
        push(&mut store, 8, 80.0);
        store.push(MachineHourRecord {
            machine: MachineId(99),
            group,
            hour: 5,
            metrics: MetricValues {
                cpu_utilization: 60.0,
                ..Default::default()
            },
        });
        assert!(!store.is_sealed());
        let series = hourly_fleet_series(&store, Metric::CpuUtilization);
        assert_eq!(
            series,
            vec![
                (2, 10.0),
                (3, 0.0),
                (4, 40.0),
                (5, 40.0), // (20 + 60) / 2 across run and delta
                (6, 0.0),
                (7, 0.0),
                (8, 80.0),
            ]
        );
    }

    #[test]
    fn windowed_hourly_series_clamps_and_prunes() {
        let mut store = TelemetryStore::new();
        let group = GroupKey::new(SkuId(0), ScId(0));
        let push = |store: &mut TelemetryStore, hour: u64, cpu: f64| {
            store.push(MachineHourRecord {
                machine: MachineId(1),
                group,
                hour,
                metrics: MetricValues {
                    cpu_utilization: cpu,
                    ..Default::default()
                },
            });
        };
        // Elder run strictly larger so the runs stay separate.
        for h in 0..10u64 {
            push(&mut store, h, 10.0);
        }
        store.seal();
        for h in 100..105u64 {
            push(&mut store, h, 50.0);
        }
        store.seal();
        // Window straddling the second run's start: in-span hours no
        // machine reported are zero-filled, as in the full series.
        assert_eq!(
            hourly_fleet_series_window(&store, Metric::CpuUtilization, 98, 103),
            vec![(98, 0.0), (99, 0.0), (100, 50.0), (101, 50.0), (102, 50.0)]
        );
        // Window in the dead zone between runs: inside the store's span,
        // so fully zero-filled — and served without consulting any run.
        let dead = hourly_fleet_series_window(&store, Metric::CpuUtilization, 40, 60);
        assert_eq!(dead.len(), 20);
        assert!(dead.iter().all(|&(_, v)| v == 0.0));
        assert_eq!(dead[0].0, 40);
        // Degenerate and out-of-span windows.
        assert!(hourly_fleet_series_window(&store, Metric::CpuUtilization, 5, 5).is_empty());
        assert!(hourly_fleet_series_window(&store, Metric::CpuUtilization, 500, 600).is_empty());
        // Unwindowed agreement on the full span.
        let full = hourly_fleet_series(&store, Metric::CpuUtilization);
        assert_eq!(full.len(), 105);
        assert_eq!(full[0], (0, 10.0));
        assert_eq!(full[104], (104, 50.0));
    }

    #[test]
    fn group_utilization_counts_distinct_machines() {
        let mut store = TelemetryStore::new();
        for m in 0..4u32 {
            for h in 0..10u64 {
                let sku = if m < 2 { 0 } else { 1 };
                store.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: GroupKey::new(SkuId(sku), ScId(1)),
                    hour: h,
                    metrics: MetricValues {
                        cpu_utilization: 50.0 + sku as f64 * 10.0 + h as f64,
                        avg_running_containers: 5.0 + sku as f64,
                        ..Default::default()
                    },
                });
            }
        }
        let groups = group_utilization(&store);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].machines, 2);
        assert_eq!(groups[1].machines, 2);
        assert!(groups[1].mean_cpu_utilization > groups[0].mean_cpu_utilization);
        assert!((groups[0].mean_running_containers - 5.0).abs() < 1e-12);
        assert!(group_utilization(&TelemetryStore::new()).is_empty());
    }

    #[test]
    fn group_utilization_dedups_machines_across_run_and_delta() {
        // The same machine observed in a run AND the delta must count
        // once; a delta-only machine extends the count.
        let mut store = TelemetryStore::new();
        let group = GroupKey::new(SkuId(0), ScId(0));
        store.push(MachineHourRecord {
            machine: MachineId(1),
            group,
            hour: 0,
            metrics: MetricValues {
                cpu_utilization: 10.0,
                ..Default::default()
            },
        });
        store.seal();
        for (m, cpu) in [(1u32, 30.0), (2, 50.0)] {
            store.push(MachineHourRecord {
                machine: MachineId(m),
                group,
                hour: 1,
                metrics: MetricValues {
                    cpu_utilization: cpu,
                    ..Default::default()
                },
            });
        }
        let groups = group_utilization(&store);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].machines, 2, "machine 1 must not double-count");
        assert!((groups[0].mean_cpu_utilization - 30.0).abs() < 1e-12);
    }

    #[test]
    fn latest_group_counts_count_a_moved_machine_once() {
        // Machine 1 moves from sku 0 to sku 1 at hour 5 and stays; machine
        // 2 reports both groups in its last hour (the greater key wins);
        // machine 3 stays in sku 0 throughout. The run/delta split puts
        // machine 1's two groups on different sides.
        let mut store = TelemetryStore::new();
        let at = |m: u32, sku: u16, hour: u64| MachineHourRecord {
            machine: MachineId(m),
            group: GroupKey::new(SkuId(sku), ScId(0)),
            hour,
            metrics: MetricValues::default(),
        };
        for h in 0..5u64 {
            store.extend([at(1, 0, h), at(2, 0, h), at(3, 0, h)]);
        }
        store.seal();
        for h in 5..8u64 {
            store.extend([at(1, 1, h), at(2, 0, h), at(3, 0, h)]);
        }
        store.push(at(2, 1, 7));
        assert!(!store.is_sealed(), "the move must straddle run and delta");
        let counts = latest_group_counts(&store);
        assert_eq!(
            counts,
            vec![
                (GroupKey::new(SkuId(0), ScId(0)), 1),
                (GroupKey::new(SkuId(1), ScId(0)), 2),
            ]
        );
        // Figure 2's view still sees every machine in every group it
        // reported from.
        let seen: Vec<usize> = group_utilization(&store)
            .iter()
            .map(|u| u.machines)
            .collect();
        assert_eq!(seen, vec![3, 2]);
        assert!(latest_group_counts(&TelemetryStore::new()).is_empty());
    }

    /// `got` and `want` hold the same aggregates with every mean equal to
    /// the bit.
    fn assert_bit_identical(got: &[DailyAggregate], want: &[DailyAggregate], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: aggregate count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                (g.group, g.machine, g.day, g.hours_observed),
                (w.group, w.machine, w.day, w.hours_observed),
                "{what}"
            );
            assert_eq!(
                g.means.map(f64::to_bits),
                w.means.map(f64::to_bits),
                "{what}: means of {:?} on day {}",
                g.machine,
                g.day
            );
        }
    }

    /// Both roll-ups of `store`, cached parts included, against the
    /// hourly kernel over every side: the whole store and each window.
    fn assert_rollups_match_kernel(store: &TelemetryStore, windows: &[(u64, u64)], step: &str) {
        assert_bit_identical(
            &daily_group_aggregates(store),
            &daily_core(&store.sides(), &[ALL_HOURS]),
            step,
        );
        for &(s, e) in windows {
            assert_bit_identical(
                &daily_group_aggregates_window(store, s, e),
                &daily_core(&store.window_sides(s, e), &[(s, e)]),
                &format!("{step}, window [{s}, {e})"),
            );
        }
    }

    /// A deterministic value stream spanning eight orders of magnitude,
    /// so a sum taken in another order differs in its low bits.
    fn noisy(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let x = *state >> 33;
        (x % 10_007) as f64 * 10f64.powi((x % 9) as i32 - 4) + 0.1
    }

    /// One machine-hour of noisy telemetry. Machine 3 sits in sku 1 on
    /// even days and sku 0 on odd ones, so groups change across runs.
    fn noisy_record(state: &mut u64, machine: u32, hour: u64) -> MachineHourRecord {
        let sku = if machine == 3 {
            (hour / 24).is_multiple_of(2) as u16
        } else {
            (machine % 2) as u16
        };
        MachineHourRecord {
            machine: MachineId(machine),
            group: GroupKey::new(SkuId(sku), ScId(0)),
            hour,
            metrics: MetricValues {
                cpu_utilization: noisy(state),
                tasks_finished: noisy(state),
                avg_task_latency_s: noisy(state),
                avg_running_containers: noisy(state),
                total_data_read_gb: noisy(state),
                ..Default::default()
            },
        }
    }

    fn push_hours(store: &mut TelemetryStore, state: &mut u64, hours: std::ops::Range<u64>) {
        for hour in hours {
            for machine in 0..5u32 {
                store.push(noisy_record(state, machine, hour));
            }
        }
    }

    /// Windows with mid-day edges, windows holding no whole day, whole
    /// days, and degenerate ones.
    const WINDOWS: [(u64, u64); 11] = [
        (5, 40),
        (30, 65),
        (13, 20),
        (50, 70),
        (20, 100),
        (0, 24),
        (24, 72),
        (0, u64::MAX),
        (500, 600),
        (40, 40),
        (60, 30),
    ];

    #[test]
    fn cached_rollups_are_bit_identical_through_seal_merge_and_append() {
        let mut state = 7u64;
        let mut store = TelemetryStore::new();

        // Day 0 seals into a run; the first roll-up warms its cache.
        push_hours(&mut store, &mut state, 0..24);
        store.seal();
        assert_eq!(store.warm_daily_runs(), 0);
        assert_rollups_match_kernel(&store, &WINDOWS, "one sealed day");
        assert_eq!(store.warm_daily_runs(), 1);

        // Day 1 seals into a run of the same size: the ladder merges the
        // warm run away, and the merged run starts cold.
        push_hours(&mut store, &mut state, 24..48);
        store.seal();
        assert_eq!(store.run_count(), 1, "equal seals merge");
        assert_eq!(store.warm_daily_runs(), 0);
        assert_rollups_match_kernel(&store, &WINDOWS, "after the ladder merge");
        assert_eq!(store.warm_daily_runs(), 1);

        // Day 2 sealed at hour 66 and again at day close: the second run
        // is the smaller, so the ladder keeps day 2 split across two runs.
        push_hours(&mut store, &mut state, 48..66);
        assert_rollups_match_kernel(&store, &WINDOWS, "a day open in the delta");
        store.seal();
        push_hours(&mut store, &mut state, 66..72);
        assert_rollups_match_kernel(&store, &WINDOWS, "a day split by a seal and the delta");
        store.seal();
        assert_eq!(store.run_count(), 3, "day 2 spans two runs");
        assert_rollups_match_kernel(&store, &WINDOWS, "a day split between two runs");
        // The split day is summed from its hourly rows, so neither of its
        // runs builds a cache.
        assert_eq!(store.warm_daily_runs(), 1);

        // Late rows for days a sealed run already covers land in the
        // delta, duplicates of sealed (machine, hour) keys among them.
        push_hours(&mut store, &mut state, 30..31);
        store.push(noisy_record(&mut state, 9, 70));
        assert_rollups_match_kernel(&store, &WINDOWS, "late rows in covered days");
        push_hours(&mut store, &mut state, 72..80);
        assert_rollups_match_kernel(&store, &WINDOWS, "late rows and a new day");
        store.seal();
        assert_rollups_match_kernel(&store, &WINDOWS, "late rows sealed");
    }

    #[test]
    fn cached_rollups_are_bit_identical_under_random_interleavings() {
        // Random batches of hours, old and new, random seals, and a query
        // after every step, so caches are warmed, merged away and rebuilt
        // at arbitrary points.
        for seed in 0..24u64 {
            let mut state = seed;
            let mut store = TelemetryStore::new();
            for step in 0..14 {
                let r = noisy(&mut state) as u64;
                if r.is_multiple_of(4) {
                    store.seal();
                } else {
                    let start = r % 96;
                    push_hours(&mut store, &mut state, start..start + 1 + r % 30);
                }
                assert_rollups_match_kernel(&store, &WINDOWS, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn empty_store_empty_outputs() {
        let store = TelemetryStore::new();
        assert!(daily_group_aggregates(&store).is_empty());
        assert!(daily_group_aggregates_window(&store, 0, 100).is_empty());
        assert!(scatter(
            &store,
            GroupKey::new(SkuId(0), ScId(0)),
            Metric::CpuUtilization,
            Metric::NumberOfTasks
        )
        .is_empty());
    }

    #[test]
    fn work_stealing_output_matches_serial_on_skewed_groups() {
        // Pathological skew: one group with ~6k rows, seven groups with a
        // handful each. A contiguous count-based split would serialize
        // the giant group's partition; work stealing must still produce
        // output identical to the serial loop (per-group slots, ascending
        // group order).
        let mut store = TelemetryStore::new();
        let giant = GroupKey::new(SkuId(0), ScId(0));
        for m in 0..40u32 {
            for h in 0..150u64 {
                store.push(MachineHourRecord {
                    machine: MachineId(m),
                    group: giant,
                    hour: h,
                    metrics: MetricValues {
                        cpu_utilization: (m + h as u32) as f64,
                        tasks_finished: h as f64,
                        avg_running_containers: m as f64 % 7.0,
                        ..Default::default()
                    },
                });
            }
        }
        for sku in 1..8u16 {
            for h in 0..3u64 {
                store.push(MachineHourRecord {
                    machine: MachineId(1000 + sku as u32),
                    group: GroupKey::new(SkuId(sku), ScId(0)),
                    hour: h,
                    metrics: MetricValues {
                        cpu_utilization: sku as f64,
                        ..Default::default()
                    },
                });
            }
        }
        // Serial ground truth via the single-worker kernel shape.
        let sides = store.sides();
        let machines = merged_machines(&sides);
        let groups = group_union(&sides);
        let n_machines = machines.ids.len();
        let serial: Vec<DailyAggregate> = {
            let mut scratch = DailyScratch {
                counts: vec![0; n_machines],
                sums: vec![[0.0; Metric::ALL.len()]; n_machines],
                touched: Vec::new(),
            };
            let mut out = Vec::new();
            for &group in &groups {
                let start = out.len();
                let mut current_day = u64::MAX;
                let rows = sides.iter().map(|s| s.group_range(group)).collect();
                for (side, row) in merge_by_hour_machine(&sides, rows) {
                    let r = &sides[side].sorted[row];
                    let dense =
                        machines.maps[side][sides[side].machine_dense[row] as usize] as usize;
                    let day = r.hour / 24;
                    if day != current_day {
                        if current_day != u64::MAX {
                            drain_day(group, current_day, &machines.ids, &mut scratch, &mut out);
                        }
                        current_day = day;
                    }
                    if scratch.counts[dense] == 0 {
                        scratch.touched.push(dense as u32);
                    }
                    scratch.counts[dense] += 1;
                    for (acc, v) in scratch.sums[dense]
                        .iter_mut()
                        .zip(Metric::row_of(&r.metrics))
                    {
                        *acc += v;
                    }
                }
                if current_day != u64::MAX {
                    drain_day(group, current_day, &machines.ids, &mut scratch, &mut out);
                }
                out[start..].sort_unstable_by_key(|a| (a.machine, a.day));
            }
            out
        };
        // Repeat the parallel run a few times to vary steal interleaving.
        for _ in 0..5 {
            let parallel = daily_group_aggregates(&store);
            assert_eq!(parallel, serial, "work-stealing output must be schedule-independent");
        }
        let util = group_utilization(&store);
        assert_eq!(util.len(), 8);
        let keys: Vec<GroupKey> = util.iter().map(|u| u.group).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "utilization output stays in group order under skew");
        assert_eq!(util[0].machines, 40);
    }

    #[test]
    fn work_stealing_covers_every_group_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for n_groups in [0usize, 1, 2, 5, 16, 17, 64] {
            for n_workers in [0usize, 1, 2, 3, 8] {
                let calls = AtomicUsize::new(0);
                let out = run_group_partitions(
                    n_groups,
                    n_workers,
                    || (),
                    |_, gi| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        gi
                    },
                );
                assert_eq!(out, (0..n_groups).collect::<Vec<_>>());
                assert_eq!(calls.load(Ordering::Relaxed), n_groups);
            }
        }
    }
}
