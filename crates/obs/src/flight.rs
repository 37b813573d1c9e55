//! The flight recorder: an always-on bounded ring of recent events that
//! dumps a Chrome trace when something goes wrong.
//!
//! A [`TimelineRecorder`](crate::TimelineRecorder) is a development
//! tool — you attach it when you intend to look at a trace. The
//! [`FlightRecorder`] is the production counterpart: it retains only
//! the last `capacity` events (cheap enough to leave on), and when an
//! *incident* occurs it automatically writes the retained window to
//! disk as a Chrome `trace_event` JSON file, so the minutes before a
//! failure are preserved without anyone having asked in advance.
//! Incidents are:
//!
//! * an admission rejection ([`Event::AdmissionReject`] — the service
//!   surfaced `PandaError::Admission` to a submitter);
//! * a request failure ([`Event::RequestError`]);
//! * a collective completing over the configured latency SLO
//!   ([`FlightRecorder::with_slo`]).
//!
//! Dumps are capped ([`FlightRecorder::with_max_dumps`]) so a reject
//! storm cannot fill the disk: each automatic dump claims its slot
//! atomically before it writes, so concurrent incidents cannot overrun
//! the cap. [`FlightRecorder::dump_now`] bypasses the cap for
//! operator-initiated captures. The ring is the same `EventRing` a
//! [`TimelineRecorder`](crate::TimelineRecorder) keeps; this recorder
//! adds only the dump policy and aggregates nothing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;
use crate::timeline::{chrome_trace, EventRing, TimelineEvent};

/// Default ring capacity (events) of a [`FlightRecorder`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Default cap on automatic incident dumps.
pub const DEFAULT_MAX_DUMPS: usize = 8;

/// See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: EventRing,
    dir: PathBuf,
    slo: Option<Duration>,
    max_dumps: usize,
    /// Automatic dump slots claimed so far (never above `max_dumps`).
    auto_dumps: AtomicUsize,
    dump_seq: AtomicU64,
    dumps: Mutex<Vec<PathBuf>>,
}

impl FlightRecorder {
    /// A recorder writing incident dumps into `dir` (created on first
    /// dump if missing), with default capacity, no latency SLO, and the
    /// default dump cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightRecorder {
            ring: EventRing::new(DEFAULT_FLIGHT_CAPACITY),
            dir: dir.into(),
            slo: None,
            max_dumps: DEFAULT_MAX_DUMPS,
            auto_dumps: AtomicUsize::new(0),
            dump_seq: AtomicU64::new(0),
            dumps: Mutex::new(Vec::new()),
        }
    }

    /// Retain at most `capacity` events (min 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.ring = EventRing::new(capacity);
        self
    }

    /// Treat any collective completing slower than `slo` as an incident.
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Cap automatic dumps at `max` (manual [`FlightRecorder::dump_now`]
    /// calls are not counted against the cap).
    pub fn with_max_dumps(mut self, max: usize) -> Self {
        self.max_dumps = max;
        self
    }

    /// The directory dumps are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Paths of every dump written so far, oldest first.
    pub fn dumps(&self) -> Vec<PathBuf> {
        self.dumps.lock().clone()
    }

    /// The most recent dump, if any.
    pub fn last_dump(&self) -> Option<PathBuf> {
        self.dumps.lock().last().cloned()
    }

    /// Write the retained window to
    /// `<dir>/flight-<seq>-<reason>.trace.json` now and return the
    /// path. `None` if the directory or file could not be written (the
    /// recorder never panics on the record path).
    pub fn dump_now(&self, reason: &str) -> Option<PathBuf> {
        let events = self.ring.events();
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = self.dir.join(format!("flight-{seq:04}-{safe}.trace.json"));
        if std::fs::create_dir_all(&self.dir).is_err() {
            return None;
        }
        if std::fs::write(&path, chrome_trace(&events)).is_err() {
            return None;
        }
        self.dumps.lock().push(path.clone());
        Some(path)
    }

    /// Whether this event ends an incident window, and why.
    fn incident(&self, event: &Event<'_>) -> Option<&'static str> {
        match event.kind() {
            EventKind::AdmissionReject => Some("admission_reject"),
            EventKind::RequestError => Some("request_error"),
            EventKind::CollectiveDone => match (self.slo, event.dur()) {
                (Some(slo), Some(dur)) if dur > slo => Some("slo_exceeded"),
                _ => None,
            },
            _ => None,
        }
    }
}

impl Recorder for FlightRecorder {
    fn record(&self, node: u32, event: &Event<'_>) {
        self.ring.push(node, event);
        let Some(reason) = self.incident(event) else {
            return;
        };
        // Claim a slot before writing, so racing incidents cannot all
        // pass the cap check while the first dump is still being written.
        let claimed = self
            .auto_dumps
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max_dumps).then_some(n + 1)
            });
        if claimed.is_ok() {
            self.dump_now(reason);
        }
    }

    fn timeline(&self) -> Option<Vec<TimelineEvent>> {
        Some(self.ring.events())
    }

    fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OpDir, SubchunkKey};
    use crate::json;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("panda-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admission_reject_triggers_a_dump() {
        let dir = temp_dir("reject");
        let rec = FlightRecorder::new(&dir).with_capacity(16);
        for i in 0..4usize {
            rec.record(
                4,
                &Event::DiskWriteQueued {
                    key: SubchunkKey::scoped(1 << 32, 0, 0, i),
                    bytes: 64,
                },
            );
        }
        assert!(rec.last_dump().is_none());
        rec.record(
            4,
            &Event::AdmissionReject {
                request: (2 << 32) | 1,
                queued: 3,
                live: 4,
            },
        );
        let path = rec.last_dump().expect("reject produced a dump");
        let doc = std::fs::read_to_string(&path).unwrap();
        json::validate(&doc).expect("dump is valid JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("admission_reject"), "trigger event retained");
        assert!(doc.contains("disk_write_queued"), "history retained");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slo_breach_triggers_and_cap_limits_dumps() {
        let dir = temp_dir("slo");
        let rec = FlightRecorder::new(&dir)
            .with_slo(Duration::from_millis(1))
            .with_max_dumps(2);
        // Under SLO: no dump.
        rec.record(
            0,
            &Event::CollectiveDone {
                request: 1 << 32,
                op: OpDir::Write,
                dur: Duration::from_micros(100),
            },
        );
        assert!(rec.dumps().is_empty());
        // Three breaches, but the cap keeps only two automatic dumps.
        for _ in 0..3 {
            rec.record(
                0,
                &Event::CollectiveDone {
                    request: 1 << 32,
                    op: OpDir::Write,
                    dur: Duration::from_millis(5),
                },
            );
        }
        assert_eq!(rec.dumps().len(), 2);
        // Manual capture bypasses the cap.
        assert!(rec.dump_now("operator").is_some());
        assert_eq!(rec.dumps().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_incidents_respect_the_dump_cap() {
        // Eight simultaneous rejections race for a single automatic
        // dump slot: exactly one may write a file. A few rounds, so a
        // check-then-write race shows up even when one round happens
        // to serialise.
        for round in 0..5 {
            let dir = temp_dir(&format!("race{round}"));
            let rec = FlightRecorder::new(&dir).with_max_dumps(1);
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let (rec, start) = (&rec, &start);
                    scope.spawn(move || {
                        start.wait();
                        rec.record(
                            4,
                            &Event::AdmissionReject {
                                request: ((t + 1) << 32) | 1,
                                queued: 1,
                                live: 1,
                            },
                        );
                    });
                }
            });
            assert_eq!(rec.dumps().len(), 1, "round {round}");
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn ring_stays_bounded() {
        let dir = temp_dir("bounded");
        let rec = FlightRecorder::new(&dir).with_capacity(8);
        for i in 0..100usize {
            rec.record(
                1,
                &Event::DiskWriteQueued {
                    key: SubchunkKey::scoped(1 << 32, 0, 0, i),
                    bytes: 1,
                },
            );
        }
        assert_eq!(rec.timeline().unwrap().len(), 8);
        assert_eq!(rec.dropped(), 92);
        assert!(rec.dumps().is_empty(), "no incident, no dump");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
