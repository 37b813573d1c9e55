//! # panda-obs — one instrumentation API for the whole Panda stack
//!
//! The paper's entire evaluation (§4, Figures 3–9) rests on *decomposed*
//! timings — client exchange time vs. disk time vs. reorganization cost.
//! This crate is the reproduction's equivalent: a single [`Recorder`]
//! trait that every layer reports through, so one run can answer "where
//! did subchunk *k* spend its time" instead of offering disconnected
//! per-crate counters.
//!
//! * [`Event`] — the typed event vocabulary. Collective-path events
//!   ([`Event::FetchReplied`], [`Event::DiskWriteDone`], …) are keyed by
//!   [`SubchunkKey`] `(server, array, subchunk)`; transport events carry
//!   tags and byte counts; file-system events carry per-call device
//!   time.
//! * [`Recorder`] — the sink trait. Implementations:
//!   * [`NullRecorder`] — does nothing; `enabled()` returns `false` so
//!     call sites skip clock reads and recording;
//!   * [`MetricsHub`] — the one aggregator: lock-free sharded per-kind
//!     counters with log₂ latency histograms, per-phase cost-line
//!     moments, the fs sequential/seek tally, per-tag send counts and
//!     per-tenant ledgers, snapshotted on demand into a
//!     [`MetricsSnapshot`] (also named [`CountersSnapshot`]) with
//!     Prometheus text exposition;
//!   * [`TimelineRecorder`] — the one event ring plus an embedded hub:
//!     exports a Chrome `trace_event` JSON trace and feeds the
//!     per-subchunk phase decomposition;
//!   * [`FlightRecorder`] — the same ring, always on, plus a dump
//!     policy: it writes a Chrome trace automatically on admission
//!     rejections, request errors, or SLO-breaching collectives;
//!   * [`FanoutRecorder`] — forwards one event stream to several sinks
//!     (e.g. a timeline for calibration plus a hub for scraping).
//! * [`RunReport`] — aggregates any recorder into one machine-readable
//!   JSON run report: phase totals (exchange / disk / reorganization /
//!   throttle), per-node phase sums, per-kind counters, and — with a
//!   timeline — per-subchunk phase durations.
//!
//! A snapshot's counters are each monotone and exact once recording
//! stops, but a snapshot is not a cut across kinds; the [`hub`] module
//! docs state the contract. The `panda_fs::IoStats` and
//! `panda_msg::FabricStats` views are not recorders: they are plain
//! relaxed counters their backend or fabric bumps on every access.
//!
//! The crate has no dependency on the rest of the workspace; `panda-msg`,
//! `panda-fs`, and `panda-core` all depend on it and report through the
//! same trait.

#![warn(missing_docs)]

pub mod calibrate;
pub mod event;
pub mod flight;
pub mod hub;
pub mod json;
pub mod recorder;
pub mod report;
pub mod timeline;

pub use calibrate::{CalibrationSummary, PhaseStats, CALIBRATION_SCHEMA};
pub use event::{Event, EventKind, OpDir, Phase, SubchunkKey, KIND_COUNT};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY, DEFAULT_MAX_DUMPS};
pub use hub::{
    tenant_of, CountersSnapshot, KindStats, MetricsHub, MetricsSnapshot, PhaseMetrics, TagStats,
    TagTable, TenantMetrics,
};
pub use recorder::{null_recorder, FanoutRecorder, NullRecorder, Recorder};
pub use report::{NodePhases, PhaseTotals, RunReport, SubchunkPhases, REPORT_SCHEMA};
pub use timeline::{chrome_trace, TimelineEvent, TimelineRecorder, DEFAULT_TIMELINE_CAPACITY};
