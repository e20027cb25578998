//! Aggregation kernels and scatter-view extraction.
//!
//! §5.2.1: "Each small dot corresponds to an observation aggregated at the
//! daily level for a machine" — model fitting happens over daily
//! machine-level aggregates, grouped by `(SC, SKU)`. The scatter view of
//! Figure 8 is the hourly disaggregated variant. Both are produced here,
//! along with the fleet series (Figure 1) and per-group utilization
//! (Figure 2) views the Performance Monitor serves.
//!
//! All four roll-ups are **fused single-pass kernels** over the store's
//! sealed runs plus delta: each group is one contiguous slice per side,
//! k-way merged on the fly, so streaming appends never force a rebuild
//! before aggregation. Counts, sums, and distinct-machine membership
//! accumulate in flat arrays indexed by *merged* dense machine ids (each
//! side's dense ids remapped through a shared table — no `BTreeMap` entry
//! lookup per record).
//!
//! The month-scale variants — [`daily_group_aggregates_window`] and
//! [`hourly_fleet_series_window`] — take an `[start, end)` hour window
//! and consult only the runs whose recorded hour bounds intersect it:
//! against a long retained history, a one-day question touches the one
//! or two segments holding that day and leaves the rest on disk.
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
use crate::record::{GroupKey, MachineHourRecord, MachineId};
use crate::store::{merge_dedup, remap_into, ColumnIndex, TelemetryStore};
use std::ops::Range;
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

/// Runs `work(scratch, group_index)` over every group in `0..n_groups`,
/// work-stealing across scoped threads: each worker owns one `scratch`
/// (built by `make_scratch`, reused across the groups it claims) and
/// pulls the next unclaimed group off a shared atomic cursor. One
/// pathologically large group therefore pins exactly one worker while
/// the others drain the rest — a contiguous count-based split would
/// serialize everything sharing its partition. Per-group results land in
/// per-group slots and are concatenated in ascending group order, so the
/// output is identical to a serial loop for any worker count and any
/// steal interleaving.
pub(crate) fn run_group_partitions<T: Send, S>(
    n_groups: usize,
    make_scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> Vec<T> + Sync,
) -> Vec<T> {
    if n_groups == 0 {
        return Vec::new();
    }
    let n_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(n_groups);
    if n_workers <= 1 {
        let mut scratch = make_scratch();
        return (0..n_groups)
            .flat_map(|gi| work(&mut scratch, gi))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<T>>> = Vec::new();
    slots.resize_with(n_groups, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = make_scratch();
                    let mut claimed: Vec<(usize, Vec<T>)> = Vec::new();
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
                // Surface worker panics (e.g. assertion failures in
                // kernels under test) instead of swallowing them.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().flatten().flatten().collect()
}

/// One group's presence across every side of the store: its row range in
/// each side's sorted order (empty when absent from that side), plus —
/// when the kernel is hour-windowed — the range already narrowed to the
/// window (the group slice is hour-major, so narrowing is two binary
/// searches per side).
struct MergedGroup {
    group: GroupKey,
    rows: Vec<Range<usize>>,
}

/// The merged group list across `sides`, ascending by group key, with
/// per-side row ranges narrowed to `window` when given.
fn merged_groups(sides: &[&ColumnIndex], window: Option<(u64, u64)>) -> Vec<MergedGroup> {
    let keys = sides
        .iter()
        .fold(Vec::new(), |acc, s| merge_dedup(&acc, &s.groups));
    keys.into_iter()
        .map(|group| MergedGroup {
            group,
            rows: sides
                .iter()
                .map(|s| {
                    let full = s.group_range(group);
                    match window {
                        None => full,
                        Some((start, end)) => {
                            let slice = &s.sorted[full.clone()];
                            let lo = full.start + slice.partition_point(|r| r.hour < start);
                            let hi = full.start + slice.partition_point(|r| r.hour < end);
                            lo..hi
                        }
                    }
                })
                .collect(),
        })
        .filter(|g| g.rows.iter().any(|r| !r.is_empty()))
        .collect()
}

/// The merged dense machine-id space across every side: the combined
/// distinct-machine list plus one remap table per side translating that
/// side's dense ids into merged ids.
struct MergedMachines {
    ids: Vec<MachineId>,
    maps: Vec<Vec<u32>>,
}

fn merged_machines(sides: &[&ColumnIndex]) -> MergedMachines {
    let ids = sides
        .iter()
        .fold(Vec::new(), |acc, s| merge_dedup(&acc, &s.machines));
    let maps = sides.iter().map(|s| remap_into(&s.machines, &ids)).collect();
    MergedMachines { ids, maps }
}

/// K-cursor merge over one group's rows across every side, ordered by
/// `(hour, machine)` (each side is already hour-major within a group;
/// the earliest side wins ties, so passing sides oldest-run-first keeps
/// arrival order). Yields each record with its *merged* dense machine
/// id.
fn for_each_merged_row(
    sides: &[&ColumnIndex],
    machines: &MergedMachines,
    g: &MergedGroup,
    mut visit: impl FnMut(&MachineHourRecord, usize),
) {
    let mut cursors: Vec<Range<usize>> = g.rows.clone();
    loop {
        let mut best: Option<(usize, (u64, MachineId))> = None;
        for (i, c) in cursors.iter().enumerate() {
            if c.start < c.end {
                let r = &sides[i].sorted[c.start];
                let k = (r.hour, r.machine);
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        let Some((i, _)) = best else { break };
        let row = cursors[i].start;
        cursors[i].start += 1;
        let dense = machines.maps[i][sides[i].machine_dense[row] as usize] as usize;
        visit(&sides[i].sorted[row], dense);
    }
}

/// Per-worker scratch of the daily roll-up kernel: a count and a
/// metric-row sum per merged dense machine id, plus the ids touched this
/// day (so a day boundary resets O(touched), not O(n_machines)).
struct DailyScratch {
    counts: Vec<u32>,
    sums: Vec<[f64; Metric::ALL.len()]>,
    touched: Vec<u32>,
}

/// Rolls the store up into per-machine, per-day aggregates (the training
/// rows of §5.2.1), sorted by `(group, machine, day)`.
///
/// Kernel shape: within a group every side's slice is hour-major, so the
/// k-cursor merge delivers days as contiguous runs; each day's rows
/// accumulate into flat `(count, sums)` buckets indexed by merged dense
/// machine id, and only touched buckets are drained and reset at the day
/// boundary. Groups are claimed by work-stealing workers.
pub fn daily_group_aggregates(store: &TelemetryStore) -> Vec<DailyAggregate> {
    daily_core(&store.sides(), None)
}

/// [`daily_group_aggregates`] restricted to hours `[start_hour,
/// end_hour)`. Sealed runs whose recorded hour bounds miss the window
/// are skipped *without decoding their segments*, so a day-scale
/// question against a month-scale history touches only the sides that
/// can answer it.
pub fn daily_group_aggregates_window(
    store: &TelemetryStore,
    start_hour: u64,
    end_hour: u64,
) -> Vec<DailyAggregate> {
    daily_core(
        &store.window_sides(start_hour, end_hour),
        Some((start_hour, end_hour)),
    )
}

fn daily_core(sides: &[&ColumnIndex], window: Option<(u64, u64)>) -> Vec<DailyAggregate> {
    let machines = merged_machines(sides);
    let groups = merged_groups(sides, window);
    let n_machines = machines.ids.len();
    run_group_partitions(
        groups.len(),
        || DailyScratch {
            counts: vec![0u32; n_machines],
            sums: vec![[0.0f64; Metric::ALL.len()]; n_machines],
            touched: Vec::new(),
        },
        |scratch, gi| {
            let g = &groups[gi];
            let mut out: Vec<DailyAggregate> = Vec::new();
            let mut current_day = u64::MAX; // no day open yet
            for_each_merged_row(sides, &machines, g, |r, dense| {
                let day = r.hour / 24;
                if day != current_day {
                    if current_day != u64::MAX {
                        drain_day(g.group, current_day, &machines.ids, scratch, &mut out);
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
            });
            if current_day != u64::MAX {
                drain_day(g.group, current_day, &machines.ids, scratch, &mut out);
            }
            // Day-major production order → the documented (machine, day)
            // order within the group.
            out.sort_unstable_by_key(|a| (a.machine, a.day));
            out
        },
    )
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
/// no machine reported). Empty when the store is empty.
///
/// Kernel shape: each side's hour CSR index yields that hour's rows
/// directly; one distinct-hour cursor per side walks the combined span,
/// and the mean is a gather-sum over the metric columns — no per-record
/// map lookups and no predicate scans.
pub fn hourly_fleet_series(store: &TelemetryStore, metric: Metric) -> Vec<(u64, f64)> {
    let Some((start, end)) = store.hour_span() else {
        return Vec::new();
    };
    hourly_core(&store.sides(), metric, start, end - 1)
}

/// [`hourly_fleet_series`] restricted to hours `[start_hour, end_hour)`
/// — one point per hour of the window's intersection with the store's
/// span (hours inside the intersection that no machine reported are
/// zero-filled, exactly as in the full series). Sealed runs whose
/// recorded hour bounds miss the window are skipped *without decoding
/// their segments*: this is the query shape the multi-segment layout
/// exists for, a one-day dashboard panel against a month of retained
/// fleet history.
pub fn hourly_fleet_series_window(
    store: &TelemetryStore,
    metric: Metric,
    start_hour: u64,
    end_hour: u64,
) -> Vec<(u64, f64)> {
    // `hour_span` reads the recorded run bounds — no segment decodes.
    let Some((lo, hi)) = store.hour_span() else {
        return Vec::new();
    };
    if end_hour <= start_hour {
        return Vec::new();
    }
    // Guarded above: end_hour >= 1 and hi >= 1, so neither `- 1` wraps.
    let start = lo.max(start_hour);
    let end_inclusive = (hi - 1).min(end_hour - 1);
    if end_inclusive < start {
        return Vec::new();
    }
    hourly_core(
        &store.window_sides(start_hour, end_hour),
        metric,
        start,
        end_inclusive,
    )
}

fn hourly_core(
    sides: &[&ColumnIndex],
    metric: Metric,
    start: u64,
    end_inclusive: u64,
) -> Vec<(u64, f64)> {
    let columns: Vec<&[f64]> = sides.iter().map(|s| &s.columns[metric.index()][..]).collect();
    // Distinct-hour cursor per side, positioned at the span start.
    let mut cursors: Vec<usize> = sides
        .iter()
        .map(|s| s.hours.partition_point(|&h| h < start))
        .collect();
    let mut out = Vec::with_capacity((end_inclusive - start + 1) as usize);
    for hour in start..=end_inclusive {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for ((s, p), column) in sides.iter().zip(cursors.iter_mut()).zip(&columns) {
            if s.hours.get(*p) == Some(&hour) {
                let positions = s.hour_offsets[*p]..s.hour_offsets[*p + 1];
                n += positions.len();
                sum += s.hour_order[positions]
                    .iter()
                    .map(|&row| column[row])
                    .sum::<f64>();
                *p += 1;
            }
        }
        out.push((hour, if n == 0 { 0.0 } else { sum / n as f64 }));
    }
    out
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
    let groups = merged_groups(&sides, None);
    let n_machines = machines.ids.len();
    let cpus: Vec<&[f64]> = sides
        .iter()
        .map(|s| &s.columns[Metric::CpuUtilization.index()][..])
        .collect();
    let containers: Vec<&[f64]> = sides
        .iter()
        .map(|s| &s.columns[Metric::AverageRunningContainers.index()][..])
        .collect();
    // With a single side the merged machine space IS that side's, so the
    // remap is the identity — skip the indirection on the hot sealed
    // path.
    let identity = sides.len() == 1;
    run_group_partitions(
        groups.len(),
        || (vec![false; n_machines], Vec::<u32>::new()),
        |(seen, touched), gi| {
            let g = &groups[gi];
            let n: usize = g.rows.iter().map(|r| r.len()).sum();
            let mut cpu_sum = 0.0f64;
            let mut containers_sum = 0.0f64;
            for (i, side) in sides.iter().enumerate() {
                let rows = g.rows[i].clone();
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
                group: g.group,
                machines: touched.len(),
                mean_cpu_utilization: cpu_sum / n as f64,
                mean_running_containers: containers_sum / n as f64,
            };
            for &dense in touched.iter() {
                seen[dense as usize] = false;
            }
            touched.clear();
            vec![result]
        },
    )
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
        let groups = merged_groups(&sides, None);
        let n_machines = machines.ids.len();
        let serial: Vec<DailyAggregate> = {
            let mut scratch = DailyScratch {
                counts: vec![0; n_machines],
                sums: vec![[0.0; Metric::ALL.len()]; n_machines],
                touched: Vec::new(),
            };
            let mut out = Vec::new();
            for g in &groups {
                let start = out.len();
                let mut current_day = u64::MAX;
                for_each_merged_row(&sides, &machines, g, |r, dense| {
                    let day = r.hour / 24;
                    if day != current_day {
                        if current_day != u64::MAX {
                            drain_day(g.group, current_day, &machines.ids, &mut scratch, &mut out);
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
                });
                if current_day != u64::MAX {
                    drain_day(g.group, current_day, &machines.ids, &mut scratch, &mut out);
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
            let calls = AtomicUsize::new(0);
            let out = run_group_partitions(
                n_groups,
                || (),
                |_, gi| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    vec![gi]
                },
            );
            assert_eq!(out, (0..n_groups).collect::<Vec<_>>());
            assert_eq!(calls.load(Ordering::Relaxed), n_groups);
        }
    }
}
