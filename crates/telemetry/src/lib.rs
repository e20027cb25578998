//! Telemetry schema and store for the KEA reproduction.
//!
//! KEA's Performance Monitor "joins data from various Cosmos sources and
//! calculates the performance metrics of interest, providing a fundamental
//! building block for all the analysis" (§4.1). This crate is the shared
//! vocabulary between the cluster simulator (which *emits* telemetry) and
//! KEA proper (which *consumes* it):
//!
//! * [`metric`] — the machine-group-level metrics of Table 2
//!   (Total Data Read, Number of Tasks, Bytes per Second, Bytes per CPU
//!   Time, CPU Utilization, Average Running Containers) plus the extended
//!   metrics used by the applications (queueing, power, SSD/RAM usage).
//! * [`record`] — one observation per machine per hour, the granularity of
//!   the paper's scatter view (Figure 8: "each point corresponding to one
//!   observation for a machine during one hour").
//! * [`store`] — an in-memory append-only store shaped like an LSM
//!   tree: N immutable **sealed runs** (columnar, indexed layout — one
//!   sort order, `(group, hour, machine)`, interned dense machine ids,
//!   one offset table over the `(group, hour)` blocks of that order,
//!   struct-of-arrays metric columns built per metric on first use, and
//!   a daily roll-up of the run's own rows, also built on first use),
//!   each carrying its `[min_hour, max_hour]` bounds, plus a **delta
//!   buffer** that absorbs streaming appends. `by_group` k-way merges
//!   the sorted sides; the hour-window views chain each side's
//!   per-group window slices, and consult only the runs whose bounds
//!   intersect the window. The delta seals
//!   into a new run past 65,536 rows (or on explicit `seal()`, e.g. at
//!   day close), and a binary-counter ladder compaction — the only
//!   compaction rule — bounds both the live run count (logarithmic)
//!   and total re-merge work (`O(log n)` per record) — a live monitor
//!   never pays an `O(n log n)` rebuild per batch. The pre-columnar flat
//!   store survives as [`store::reference`].
//! * [`csv`] — flat-file persistence with schema checking and typed
//!   rejection of non-finite metric values.
//! * [`persist`] — durable storage mirroring the LSM shape on disk: a
//!   checksummed write-ahead log for the delta tail, one immutable
//!   segment file per sealed run (two checksummed sections, records and
//!   machines, 127 bytes/row), and an atomically-flipped manifest
//!   naming the live file set with per-segment row counts and hour
//!   bounds.
//!   [`TelemetryStore::open`] recovers a directory (every segment
//!   loaded and checked before it returns, torn WAL tails truncated,
//!   a corrupt file quarantined and the open refused, never a panic)
//!   and reads only the format this build writes: a directory from an
//!   older build is refused, untouched. [`TelemetryStore::sync`] makes
//!   appended records durable with one fsync per batch, never merges
//!   runs, and never rewrites an unchanged segment.
//! * [`aggregate`] — fused single-pass aggregation kernels k-way merged
//!   over the sealed runs + delta (hourly→daily roll-ups, fleet series,
//!   group utilization, each machine's latest group for the LP's `n_k`),
//!   work-stealing parallel across groups through
//!   [`run_group_partitions`] (the fan-out the fitter and the federated
//!   simulator share), plus the
//!   scatter-view extraction that feeds model fitting and hour-windowed
//!   variants ([`daily_group_aggregates_window`],
//!   [`hourly_fleet_series_window`]) that ride the store's run pruning.
//!   The daily roll-ups re-sum only what changed: a day one sealed run
//!   alone holds comes from that run's cached roll-up, bit-identical to
//!   summing its hours again. Pre-columnar roll-ups survive as
//!   [`aggregate::reference`].
//!
//! The key design decision mirrors the paper's Level-V abstraction: all
//! analysis happens at the `(software configuration, SKU)` machine-group
//! level, so every record carries a [`record::GroupKey`] and the store
//! indexes `(group, hour)` blocks, never a single machine's time series:
//! an hour window is an hour range inside each group.
//!
//! The crate depends on no other crate of the workspace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
pub mod csv;
pub mod metric;
pub mod persist;
pub mod record;
pub mod store;

pub use aggregate::{
    daily_group_aggregates, daily_group_aggregates_window, group_utilization, hourly_fleet_series,
    hourly_fleet_series_window, latest_group_counts, run_group_partitions, scatter, DailyAggregate,
    GroupUtilization, ScatterPoint,
};
pub use csv::{read_csv, write_csv, CsvError};
pub use persist::{PersistError, SyncStats};
pub use metric::Metric;
pub use record::{GroupKey, MachineHourRecord, MachineId, MetricValues, ScId, SkuId};
pub use store::TelemetryStore;
