//! Per-event timeline recording with Chrome `trace_event` export.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::event::{Event, EventKind, SubchunkKey};
use crate::hub::{CountersSnapshot, MetricsHub};
use crate::json;
use crate::recorder::Recorder;

/// Default ring-buffer capacity (events) of a [`TimelineRecorder`].
pub const DEFAULT_TIMELINE_CAPACITY: usize = 1 << 16;

/// One recorded event, flattened for storage and export. `ts_nanos` is
/// the event's *end* time relative to the recorder's epoch; subtract
/// `dur_nanos` for the start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// End timestamp, nanoseconds since the recorder was created.
    pub ts_nanos: u64,
    /// Reporting node's fabric rank.
    pub node: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Collective request id, for request-scoped events.
    pub request: Option<u64>,
    /// Subchunk key, for keyed events.
    pub key: Option<SubchunkKey>,
    /// Bytes the event accounts for.
    pub bytes: u64,
    /// Duration the event carries, in nanoseconds (zero if none).
    pub dur_nanos: u64,
    /// Peer rank (fetch/push client, message source/destination).
    pub peer: Option<u32>,
    /// Message tag, for transport events.
    pub tag: Option<u32>,
    /// Sequential-or-seek classification, for file-system accesses.
    pub sequential: Option<bool>,
    /// File name, for file-system events.
    pub label: Option<String>,
}

impl TimelineEvent {
    /// Start timestamp (end minus duration), nanoseconds since epoch.
    pub fn start_nanos(&self) -> u64 {
        self.ts_nanos.saturating_sub(self.dur_nanos)
    }

    /// Flatten a borrowed [`Event`] into an owned record, stamping its
    /// end time as `elapsed` nanoseconds since the caller's epoch. This
    /// is the one place event fields are projected into storage form —
    /// used by the event ring behind both recorders.
    pub fn from_event(ts_nanos: u64, node: u32, event: &Event<'_>) -> Self {
        TimelineEvent {
            ts_nanos,
            node,
            kind: event.kind(),
            request: event.request(),
            key: event.key(),
            bytes: event.bytes(),
            dur_nanos: event.dur().unwrap_or(Duration::ZERO).as_nanos() as u64,
            peer: event.peer(),
            tag: event.tag(),
            sequential: event.sequential(),
            label: event.label().map(str::to_owned),
        }
    }
}

/// Serialize `events` as a Chrome `trace_event` JSON document
/// (`{"traceEvents": [...]}`), loadable in `about:tracing` or Perfetto.
/// Duration-carrying events become complete (`"X"`) events; the rest
/// become instants (`"i"`). `tid` is the node rank.
pub fn chrome_trace(events: &[TimelineEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::push_str(&mut out, e.kind.name());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.node.to_string());
        if e.dur_nanos > 0 {
            out.push_str(",\"ph\":\"X\",\"ts\":");
            json::push_f64(&mut out, e.start_nanos() as f64 / 1e3);
            out.push_str(",\"dur\":");
            json::push_f64(&mut out, e.dur_nanos as f64 / 1e3);
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            json::push_f64(&mut out, e.ts_nanos as f64 / 1e3);
        }
        out.push_str(",\"args\":{");
        let mut first = true;
        let mut arg = |out: &mut String, k: &str, v: String| {
            if !first {
                out.push(',');
            }
            first = false;
            json::push_str(out, k);
            out.push(':');
            out.push_str(&v);
        };
        if let Some(key) = e.key {
            // Unscoped keys keep the pre-tenancy `s…a…c…` shape so
            // existing trace consumers are unaffected.
            let prefix = match key.request {
                0 => String::new(),
                r => format!("r{r}"),
            };
            arg(
                &mut out,
                "key",
                format!(
                    "\"{}s{}a{}c{}\"",
                    prefix, key.server, key.array, key.subchunk
                ),
            );
        }
        if let Some(request) = e.request {
            arg(&mut out, "request", request.to_string());
        }
        if e.bytes > 0 {
            arg(&mut out, "bytes", e.bytes.to_string());
        }
        if let Some(peer) = e.peer {
            arg(&mut out, "peer", peer.to_string());
        }
        if let Some(tag) = e.tag {
            arg(&mut out, "tag", tag.to_string());
        }
        if let Some(seq) = e.sequential {
            arg(&mut out, "sequential", seq.to_string());
        }
        if let Some(label) = &e.label {
            let mut s = String::new();
            json::push_str(&mut s, label);
            arg(&mut out, "file", s);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// A bounded ring of flattened events, stamped against its own epoch:
/// the oldest event is dropped on overflow and tallied. The one event
/// buffer behind [`TimelineRecorder`] and [`crate::FlightRecorder`].
#[derive(Debug)]
pub(crate) struct EventRing {
    epoch: Instant,
    capacity: usize,
    events: Mutex<VecDeque<TimelineEvent>>,
    dropped: AtomicU64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        EventRing {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Stamp and append one event, evicting the oldest when full.
    pub(crate) fn push(&self, node: u32, event: &Event<'_>) {
        let ts_nanos = self.epoch.elapsed().as_nanos() as u64;
        let flat = TimelineEvent::from_event(ts_nanos, node, event);
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(flat);
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> Vec<TimelineEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Events evicted so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A [`Recorder`] that keeps every event in a bounded event ring
/// (oldest events are dropped on overflow and tallied in
/// [`Recorder::dropped`]) and aggregates counters in an embedded
/// [`MetricsHub`], exposed through [`Recorder::counters`].
#[derive(Debug)]
pub struct TimelineRecorder {
    ring: EventRing,
    hub: MetricsHub,
}

impl Default for TimelineRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TimelineRecorder {
    /// A recorder with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }

    /// A recorder whose ring holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TimelineRecorder {
            ring: EventRing::new(capacity),
            hub: MetricsHub::new(),
        }
    }

    /// The instant timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.ring.epoch
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.events.lock().len()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the retained events as a Chrome `trace_event` JSON
    /// document via [`chrome_trace`].
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.ring.events())
    }
}

impl Recorder for TimelineRecorder {
    fn record(&self, node: u32, event: &Event<'_>) {
        self.hub.record(node, event);
        self.ring.push(node, event);
    }

    fn counters(&self) -> Option<CountersSnapshot> {
        Some(self.hub.snapshot())
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
    use crate::event::OpDir;

    fn sample_events(rec: &TimelineRecorder) {
        let key = SubchunkKey::new(0, 0, 3);
        rec.record(
            4,
            &Event::RequestIssued {
                request: 0,
                op: OpDir::Write,
                arrays: 1,
                pipeline_depth: 2,
            },
        );
        rec.record(
            4,
            &Event::FetchReplied {
                key,
                bytes: 128,
                wait: Duration::from_micros(250),
            },
        );
        rec.record(
            4,
            &Event::FsWrite {
                file: "a.s0",
                offset: 0,
                bytes: 128,
                sequential: true,
                dur: Duration::from_micros(40),
            },
        );
    }

    #[test]
    fn records_flattened_events_in_order() {
        let rec = TimelineRecorder::new();
        sample_events(&rec);
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 3);
        assert!(tl.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        assert_eq!(tl[1].kind, EventKind::FetchReplied);
        assert_eq!(tl[1].key, Some(SubchunkKey::new(0, 0, 3)));
        assert_eq!(tl[1].dur_nanos, 250_000);
        assert!(tl[1].start_nanos() <= tl[1].ts_nanos);
        assert_eq!(tl[2].label.as_deref(), Some("a.s0"));
        assert_eq!(tl[2].sequential, Some(true));
        assert_eq!(rec.dropped(), 0);
        // Counters aggregate alongside the ring.
        assert_eq!(
            rec.counters().unwrap().kind(EventKind::FetchReplied).count,
            1
        );
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let rec = TimelineRecorder::with_capacity(2);
        sample_events(&rec);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        let tl = rec.timeline().unwrap();
        // The RequestIssued instant was the oldest and got evicted.
        assert_eq!(tl[0].kind, EventKind::FetchReplied);
        // Counters still saw all three events.
        assert_eq!(
            rec.counters().unwrap().kind(EventKind::RequestIssued).count,
            1
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_phases() {
        let rec = TimelineRecorder::new();
        sample_events(&rec);
        let trace = rec.to_chrome_trace();
        json::validate(&trace).expect("trace parses");
        assert!(trace.contains("\"ph\":\"X\""), "has complete events");
        assert!(trace.contains("\"ph\":\"i\""), "has instant events");
        assert!(trace.contains("\"name\":\"fetch_replied\""));
        assert!(trace.contains("\"key\":\"s0a0c3\""));
    }

    #[test]
    fn wraparound_keeps_per_request_filtering_consistent() {
        // Two tenants' request ids interleave through a ring much
        // smaller than the event stream. After heavy overwriting the
        // retained window must still be per-request consistent: every
        // request's retained events stay in timestamp order, carry that
        // request's id only, and the retained suffix is contiguous (the
        // ring drops oldest-first, never from the middle).
        let req_a = (1u64 << 32) | 1; // tenant 0
        let req_b = (2u64 << 32) | 1; // tenant 1
        let rec = TimelineRecorder::with_capacity(8);
        let total = 50u64;
        for i in 0..total {
            let (request, tenant_server) = if i % 2 == 0 { (req_a, 0) } else { (req_b, 1) };
            rec.record(
                4,
                &Event::DiskWriteQueued {
                    // Subchunk index is the tenant's own sequence number.
                    key: SubchunkKey::scoped(request, tenant_server, 0, (i / 2) as usize),
                    bytes: 64,
                },
            );
        }
        assert_eq!(rec.len(), 8);
        assert_eq!(rec.dropped(), total - 8);
        let tl = rec.timeline().unwrap();
        assert!(tl.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        for (request, server) in [(req_a, 0u32), (req_b, 1u32)] {
            let mine: Vec<_> = tl.iter().filter(|e| e.request == Some(request)).collect();
            assert_eq!(mine.len(), 4, "each tenant keeps half the window");
            assert!(mine.iter().all(|e| e.key.unwrap().server == server));
            // Contiguous suffix of that tenant's stream: consecutive
            // subchunk indices, ending at the tenant's last event.
            let idx: Vec<u32> = mine.iter().map(|e| e.key.unwrap().subchunk).collect();
            assert!(idx.windows(2).all(|w| w[1] == w[0] + 1));
            let last_for_tenant = (total - 1 - u64::from(request == req_a)) / 2;
            assert_eq!(u64::from(*idx.last().unwrap()), last_for_tenant);
        }
    }

    #[test]
    fn wraparound_trace_exports_only_retained_events() {
        let req_a = (1u64 << 32) | 9;
        let req_b = (2u64 << 32) | 9;
        let rec = TimelineRecorder::with_capacity(4);
        for i in 0..20usize {
            let request = if i % 2 == 0 { req_a } else { req_b };
            rec.record(
                5,
                &Event::DiskWriteQueued {
                    key: SubchunkKey::scoped(request, 0, 0, i),
                    bytes: 1,
                },
            );
        }
        let trace = rec.to_chrome_trace();
        json::validate(&trace).expect("trace parses after wraparound");
        // Retained: subchunks 16..20, alternating tenants.
        for kept in 16..20 {
            assert!(
                trace.contains(&format!("c{kept}\"")),
                "subchunk {kept} kept"
            );
        }
        assert!(!trace.contains("c15\""), "evicted events do not export");
        assert!(trace.contains(&format!("\"request\":{req_a}")));
        assert!(trace.contains(&format!("\"request\":{req_b}")));
        // Counters still saw the full stream even though the ring wrapped.
        assert_eq!(
            rec.counters()
                .unwrap()
                .kind(EventKind::DiskWriteQueued)
                .count,
            20
        );
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        use std::sync::Arc;
        let rec = Arc::new(TimelineRecorder::with_capacity(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let request = (t + 1) << 32;
                    for i in 0..200usize {
                        rec.record(
                            t as u32,
                            &Event::DiskWriteQueued {
                                key: SubchunkKey::scoped(request, 0, 0, i),
                                bytes: 8,
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(rec.len(), 64);
        assert_eq!(rec.dropped(), 4 * 200 - 64);
        let tl = rec.timeline().unwrap();
        // Global timestamp order is not guaranteed across writers (the
        // stamp is taken before the ring lock), but each writer's own
        // stream must stay in submission order in the window.
        for t in 0..4u64 {
            let request = (t + 1) << 32;
            let idx: Vec<u32> = tl
                .iter()
                .filter(|e| e.request == Some(request))
                .map(|e| e.key.unwrap().subchunk)
                .collect();
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
        json::validate(&rec.to_chrome_trace()).expect("trace parses");
    }

    #[test]
    fn request_scoped_keys_are_prefixed_in_traces() {
        let rec = TimelineRecorder::new();
        rec.record(
            4,
            &Event::DiskWriteQueued {
                key: SubchunkKey::scoped(7, 0, 1, 2),
                bytes: 64,
            },
        );
        let tl = rec.timeline().unwrap();
        assert_eq!(tl[0].request, Some(7));
        let trace = rec.to_chrome_trace();
        json::validate(&trace).expect("trace parses");
        assert!(trace.contains("\"key\":\"r7s0a1c2\""));
        assert!(trace.contains("\"request\":7"));
    }
}
