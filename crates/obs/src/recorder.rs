//! The `Recorder` trait and the zero-cost null implementation.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::event::Event;
use crate::hub::{CountersSnapshot, MetricsSnapshot};
use crate::timeline::TimelineEvent;

/// A sink for instrumentation events.
///
/// Every layer of the stack (`panda-msg` transports, `panda-fs`
/// backends, the `panda-core` client/server) reports through this one
/// trait. `node` is the reporter's global fabric rank (clients
/// `0..C`, servers `C..C+S`); layers that have no rank report `0`.
///
/// # Cost when disabled
///
/// Emitting an event usually requires reading the clock (to measure a
/// duration) and building an [`Event`]. Call sites MUST gate that work
/// on [`Recorder::enabled`]; [`NullRecorder`] returns `false`, so a
/// non-instrumented run reads no clock and records nothing. One cost
/// remains by design: each file-system backend and each fabric keeps
/// its own `IoStats` / `FabricStats` counters, which it bumps on every
/// access whatever recorder is attached. That is two or three relaxed
/// adds per fs call and two per message, plus a lock-free tag-slot
/// probe and two more adds per send — no lock, no clock read, no
/// histogram.
pub trait Recorder: fmt::Debug + Send + Sync {
    /// Whether events should be constructed and durations measured at
    /// all. Hot paths check this before doing any instrumentation work.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event from node `node`. Must be cheap and must never
    /// block for long: it is called on the collective hot path.
    fn record(&self, node: u32, event: &Event<'_>);

    /// Aggregate counters, if this recorder keeps them.
    fn counters(&self) -> Option<CountersSnapshot> {
        None
    }

    /// The recorded event timeline, if this recorder keeps one.
    fn timeline(&self) -> Option<Vec<TimelineEvent>> {
        None
    }

    /// Number of events dropped (ring-buffer overflow); zero for
    /// recorders that never drop.
    fn dropped(&self) -> u64 {
        0
    }

    /// A live metrics snapshot, if this recorder is (or forwards to) a
    /// [`crate::MetricsHub`]. Lets scrape surfaces reach the hub through
    /// an `Arc<dyn Recorder>` without downcasting.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// A recorder that forwards every event to several children — e.g. a
/// [`crate::TimelineRecorder`] (for calibration, which needs per-subchunk
/// rows) alongside a [`crate::MetricsHub`] (for the live scrape surface)
/// and a [`crate::FlightRecorder`] (for incident dumps).
#[derive(Debug)]
pub struct FanoutRecorder {
    children: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// Forward to `children`, in order.
    pub fn new(children: Vec<Arc<dyn Recorder>>) -> Self {
        FanoutRecorder { children }
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.children.iter().any(|c| c.enabled())
    }

    fn record(&self, node: u32, event: &Event<'_>) {
        for c in &self.children {
            c.record(node, event);
        }
    }

    fn counters(&self) -> Option<CountersSnapshot> {
        self.children.iter().find_map(|c| c.counters())
    }

    fn timeline(&self) -> Option<Vec<TimelineEvent>> {
        self.children.iter().find_map(|c| c.timeline())
    }

    fn dropped(&self) -> u64 {
        self.children.iter().map(|c| c.dropped()).sum()
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.children.iter().find_map(|c| c.metrics())
    }
}

/// A recorder that does nothing. `enabled()` is `false`, so call sites
/// skip event construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _node: u32, _event: &Event<'_>) {}
}

/// The shared null recorder: a cached `Arc` so defaulting a recorder
/// field costs one clone, not an allocation.
pub fn null_recorder() -> Arc<dyn Recorder> {
    static NULL: OnceLock<Arc<NullRecorder>> = OnceLock::new();
    NULL.get_or_init(|| Arc::new(NullRecorder)).clone() as Arc<dyn Recorder>
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let rec = null_recorder();
        assert!(!rec.enabled());
        rec.record(
            0,
            &Event::RequestIssued {
                request: 0,
                op: crate::OpDir::Write,
                arrays: 1,
                pipeline_depth: 1,
            },
        );
        assert!(rec.counters().is_none());
        assert!(rec.timeline().is_none());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn null_recorder_is_shared() {
        let a = null_recorder();
        let b = null_recorder();
        // Both handles come from the same cached allocation.
        assert!(std::ptr::eq(
            Arc::as_ptr(&a) as *const u8,
            Arc::as_ptr(&b) as *const u8
        ));
    }
}
