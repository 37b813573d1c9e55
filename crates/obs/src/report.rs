//! Machine-readable run reports: the paper-style phase decomposition
//! aggregated from any [`Recorder`].

use std::collections::BTreeMap;

use crate::event::{EventKind, Phase, SubchunkKey};
use crate::hub::CountersSnapshot;
use crate::json;
use crate::recorder::Recorder;
use crate::timeline::TimelineEvent;

/// Schema tag written into every report so consumers can sanity-check
/// what they are reading.
pub const REPORT_SCHEMA: &str = "panda-obs-run-report-v1";

/// Summed seconds per [`Phase`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    secs: [f64; Phase::ALL.len()],
}

impl PhaseTotals {
    /// Seconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.secs[phase as usize]
    }

    /// Add `secs` to `phase`.
    pub fn add(&mut self, phase: Phase, secs: f64) {
        self.secs[phase as usize] += secs;
    }

    fn push_json(&self, out: &mut String) {
        out.push('{');
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(out, phase.name());
            out.push(':');
            json::push_f64(out, self.get(*phase));
        }
        out.push('}');
    }
}

/// Phase totals for one node (fabric rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePhases {
    /// The node's fabric rank (clients `0..C`, servers `C..C+S`).
    pub node: u32,
    /// Its phase totals.
    pub phases: PhaseTotals,
}

/// Phase durations attributed to one subchunk (timeline runs only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubchunkPhases {
    /// Which subchunk.
    pub key: SubchunkKey,
    /// Subchunk size in bytes (best known value).
    pub bytes: u64,
    /// Server time blocked waiting for this subchunk's client data.
    pub exchange_s: f64,
    /// Disk time spent writing/reading this subchunk.
    pub disk_s: f64,
    /// Reorganization (pack/scatter) time for this subchunk.
    pub reorg_s: f64,
}

/// One machine-readable run report, aggregated from a [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Wall-clock span covered by the timeline, seconds (zero when the
    /// recorder keeps no timeline).
    pub wall_s: f64,
    /// Phase totals summed over all nodes.
    pub phases: PhaseTotals,
    /// Phase totals per node, sorted by rank (timeline runs only).
    pub per_node: Vec<NodePhases>,
    /// Phase durations per subchunk, sorted by key (timeline runs only).
    pub per_subchunk: Vec<SubchunkPhases>,
    /// Seconds during which a node was doing measured subchunk work
    /// (exchange / disk / reorg) for two *different* arrays at once,
    /// summed over nodes (timeline runs only). Nonzero only when group
    /// scheduling actually interleaves arrays; a strict
    /// array-at-a-time run reports 0.
    pub cross_array_overlap_s: f64,
    /// Aggregate counters, if the recorder keeps them.
    pub counters: Option<CountersSnapshot>,
    /// Events dropped by the recorder (ring overflow).
    pub dropped_events: u64,
}

impl RunReport {
    /// Aggregate `recorder` into a report. Works with any recorder: a
    /// [`crate::TimelineRecorder`] yields phase totals and counters from
    /// its embedded hub plus wall span and per-node / per-subchunk
    /// decompositions from its ring, a [`crate::NullRecorder`] yields an
    /// empty report.
    pub fn from_recorder(recorder: &dyn Recorder) -> RunReport {
        let counters = recorder.counters();
        let timeline = recorder.timeline();
        let mut phases = PhaseTotals::default();
        if let Some(snap) = &counters {
            for phase in Phase::ALL {
                phases.add(phase, snap.phase_secs(phase));
            }
        }
        let (wall_s, per_node, per_subchunk, cross_array_overlap_s) = match &timeline {
            Some(events) if !events.is_empty() => {
                if counters.is_none() {
                    // No aggregate counters: derive totals from the
                    // (possibly truncated) timeline instead.
                    for e in events {
                        if let Some(phase) = e.kind.phase() {
                            phases.add(phase, e.dur_nanos as f64 / 1e9);
                        }
                    }
                }
                (
                    wall_span(events),
                    per_node_phases(events),
                    per_subchunk_phases(events),
                    cross_array_overlap(events),
                )
            }
            _ => (0.0, Vec::new(), Vec::new(), 0.0),
        };
        RunReport {
            wall_s,
            phases,
            per_node,
            per_subchunk,
            cross_array_overlap_s,
            counters,
            dropped_events: recorder.dropped(),
        }
    }

    /// Aggregate only the events of one collective request. Concurrent
    /// collectives interleave on shared nodes; this filters the
    /// timeline by request id before decomposing, so one request's
    /// report never absorbs another's exchange/disk/reorg time.
    /// Requires a timeline-keeping recorder — aggregate counters are
    /// not request-scoped, so `counters` is always `None` here and
    /// phase totals come from the filtered timeline.
    pub fn for_request(recorder: &dyn Recorder, request: u64) -> RunReport {
        let events: Vec<TimelineEvent> = recorder
            .timeline()
            .unwrap_or_default()
            .into_iter()
            .filter(|e| e.request == Some(request))
            .collect();
        let mut phases = PhaseTotals::default();
        for e in &events {
            if let Some(phase) = e.kind.phase() {
                phases.add(phase, e.dur_nanos as f64 / 1e9);
            }
        }
        let (wall_s, per_node, per_subchunk, cross_array_overlap_s) = if events.is_empty() {
            (0.0, Vec::new(), Vec::new(), 0.0)
        } else {
            (
                wall_span(&events),
                per_node_phases(&events),
                per_subchunk_phases(&events),
                cross_array_overlap(&events),
            )
        };
        RunReport {
            wall_s,
            phases,
            per_node,
            per_subchunk,
            cross_array_overlap_s,
            counters: None,
            dropped_events: recorder.dropped(),
        }
    }

    /// Total exchange-phase seconds (servers blocked on client data).
    pub fn exchange_s(&self) -> f64 {
        self.phases.get(Phase::Exchange)
    }

    /// Total disk-phase seconds (positioned reads and writes).
    pub fn disk_s(&self) -> f64 {
        self.phases.get(Phase::Disk)
    }

    /// Total reorganization seconds (pack/scatter CPU time).
    pub fn reorg_s(&self) -> f64 {
        self.phases.get(Phase::Reorg)
    }

    /// Total throttle seconds (admission/flow-control stalls).
    pub fn throttle_s(&self) -> f64 {
        self.phases.get(Phase::Throttle)
    }

    /// Serialize as one JSON object (schema [`REPORT_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":");
        json::push_str(&mut out, REPORT_SCHEMA);
        out.push_str(",\"wall_s\":");
        json::push_f64(&mut out, self.wall_s);
        out.push_str(",\"cross_array_overlap_s\":");
        json::push_f64(&mut out, self.cross_array_overlap_s);
        out.push_str(",\"dropped_events\":");
        out.push_str(&self.dropped_events.to_string());
        out.push_str(",\"phases\":");
        self.phases.push_json(&mut out);
        out.push_str(",\"per_node\":[");
        for (i, n) in self.per_node.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"node\":");
            out.push_str(&n.node.to_string());
            out.push_str(",\"phases\":");
            n.phases.push_json(&mut out);
            out.push('}');
        }
        out.push_str("],\"per_subchunk\":[");
        for (i, s) in self.per_subchunk.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"request\":");
            out.push_str(&s.key.request.to_string());
            out.push_str(",\"server\":");
            out.push_str(&s.key.server.to_string());
            out.push_str(",\"array\":");
            out.push_str(&s.key.array.to_string());
            out.push_str(",\"subchunk\":");
            out.push_str(&s.key.subchunk.to_string());
            out.push_str(",\"bytes\":");
            out.push_str(&s.bytes.to_string());
            out.push_str(",\"exchange_s\":");
            json::push_f64(&mut out, s.exchange_s);
            out.push_str(",\"disk_s\":");
            json::push_f64(&mut out, s.disk_s);
            out.push_str(",\"reorg_s\":");
            json::push_f64(&mut out, s.reorg_s);
            out.push('}');
        }
        out.push(']');
        if let Some(snap) = &self.counters {
            out.push_str(",\"counters\":{\"fs_sequential\":");
            out.push_str(&snap.fs_sequential.to_string());
            out.push_str(",\"fs_seeks\":");
            out.push_str(&snap.fs_seeks.to_string());
            out.push_str(",\"kinds\":[");
            let mut first = true;
            for k in snap.kinds.iter().filter(|k| k.count > 0) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"kind\":");
                json::push_str(&mut out, k.kind.name());
                out.push_str(",\"count\":");
                out.push_str(&k.count.to_string());
                out.push_str(",\"bytes\":");
                out.push_str(&k.bytes.to_string());
                out.push_str(",\"secs\":");
                json::push_f64(&mut out, k.secs());
                out.push_str(",\"p50_s\":");
                json::push_f64(&mut out, k.quantile(0.50));
                out.push_str(",\"p99_s\":");
                json::push_f64(&mut out, k.quantile(0.99));
                out.push('}');
            }
            out.push_str("],\"tags\":[");
            for (i, t) in snap.tags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"tag\":");
                out.push_str(&t.tag.to_string());
                out.push_str(",\"msgs\":");
                out.push_str(&t.msgs.to_string());
                out.push_str(",\"bytes\":");
                out.push_str(&t.bytes.to_string());
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

/// Wall span covered by `events`: latest end minus earliest start.
fn wall_span(events: &[TimelineEvent]) -> f64 {
    let start = events
        .iter()
        .map(TimelineEvent::start_nanos)
        .min()
        .unwrap_or(0);
    let end = events.iter().map(|e| e.ts_nanos).max().unwrap_or(0);
    end.saturating_sub(start) as f64 / 1e9
}

fn per_node_phases(events: &[TimelineEvent]) -> Vec<NodePhases> {
    let mut map: BTreeMap<u32, PhaseTotals> = BTreeMap::new();
    for e in events {
        if let Some(phase) = e.kind.phase() {
            map.entry(e.node)
                .or_default()
                .add(phase, e.dur_nanos as f64 / 1e9);
        }
    }
    map.into_iter()
        .map(|(node, phases)| NodePhases { node, phases })
        .collect()
}

/// Seconds a node spent inside keyed, duration-carrying events of two
/// different arrays simultaneously, summed over nodes. Each (node,
/// array)'s busy intervals are merged into a disjoint union first, so a
/// node overlapping itself within one array contributes nothing.
fn cross_array_overlap(events: &[TimelineEvent]) -> f64 {
    let mut busy: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        let Some(key) = e.key else { continue };
        if e.dur_nanos == 0 {
            continue;
        }
        busy.entry((e.node, key.array))
            .or_default()
            .push((e.start_nanos(), e.ts_nanos));
    }
    // Merge each (node, array) interval set into a disjoint union.
    let mut merged: BTreeMap<u32, Vec<Vec<(u64, u64)>>> = BTreeMap::new();
    for ((node, _array), mut spans) in busy {
        spans.sort_unstable();
        let mut union: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match union.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => union.push((s, e)),
            }
        }
        merged.entry(node).or_default().push(union);
    }
    let mut overlap_nanos = 0u64;
    for arrays in merged.values() {
        for (i, a) in arrays.iter().enumerate() {
            for b in &arrays[i + 1..] {
                // Two-pointer sweep over two sorted disjoint unions.
                let (mut x, mut y) = (0usize, 0usize);
                while x < a.len() && y < b.len() {
                    let lo = a[x].0.max(b[y].0);
                    let hi = a[x].1.min(b[y].1);
                    overlap_nanos += hi.saturating_sub(lo);
                    if a[x].1 <= b[y].1 {
                        x += 1;
                    } else {
                        y += 1;
                    }
                }
            }
        }
    }
    overlap_nanos as f64 / 1e9
}

fn per_subchunk_phases(events: &[TimelineEvent]) -> Vec<SubchunkPhases> {
    let mut map: BTreeMap<SubchunkKey, SubchunkPhases> = BTreeMap::new();
    for e in events {
        let Some(key) = e.key else { continue };
        let entry = map.entry(key).or_insert(SubchunkPhases {
            key,
            bytes: 0,
            exchange_s: 0.0,
            disk_s: 0.0,
            reorg_s: 0.0,
        });
        // Best size estimate: the planner's figure, or the disk call's.
        if matches!(
            e.kind,
            EventKind::SubchunkPlanned | EventKind::DiskWriteDone | EventKind::DiskReadDone
        ) {
            entry.bytes = entry.bytes.max(e.bytes);
        }
        let secs = e.dur_nanos as f64 / 1e9;
        match e.kind.phase() {
            Some(Phase::Exchange) => entry.exchange_s += secs,
            Some(Phase::Disk) => entry.disk_s += secs,
            Some(Phase::Reorg) => entry.reorg_s += secs,
            _ => {}
        }
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::null_recorder;
    use crate::timeline::TimelineRecorder;
    use std::time::Duration;

    fn drive(rec: &TimelineRecorder) {
        let k0 = SubchunkKey::new(0, 0, 0);
        let k1 = SubchunkKey::new(0, 0, 1);
        rec.record(
            2,
            &Event::SubchunkPlanned {
                key: k0,
                bytes: 256,
            },
        );
        rec.record(
            2,
            &Event::FetchReplied {
                key: k0,
                bytes: 256,
                wait: Duration::from_millis(4),
            },
        );
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: k0,
                offset: 0,
                bytes: 256,
                dur: Duration::from_millis(6),
            },
        );
        rec.record(
            3,
            &Event::DiskWriteDone {
                key: k1,
                offset: 256,
                bytes: 512,
                dur: Duration::from_millis(2),
            },
        );
    }

    #[test]
    fn aggregates_phases_nodes_and_subchunks() {
        let rec = TimelineRecorder::new();
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        assert!((report.phases.get(Phase::Exchange) - 0.004).abs() < 1e-9);
        assert!((report.phases.get(Phase::Disk) - 0.008).abs() < 1e-9);
        assert!(report.wall_s > 0.0);
        assert_eq!(report.per_node.len(), 2);
        assert_eq!(report.per_node[0].node, 2);
        assert!((report.per_node[1].phases.get(Phase::Disk) - 0.002).abs() < 1e-9);
        assert_eq!(report.per_subchunk.len(), 2);
        let s0 = &report.per_subchunk[0];
        assert_eq!(s0.key, SubchunkKey::new(0, 0, 0));
        assert_eq!(s0.bytes, 256);
        assert!((s0.exchange_s - 0.004).abs() < 1e-9);
        assert!((s0.disk_s - 0.006).abs() < 1e-9);
        assert_eq!(report.dropped_events, 0);
        assert!(report.counters.is_some());
    }

    #[test]
    fn json_report_is_valid() {
        let rec = TimelineRecorder::new();
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        let doc = report.to_json();
        json::validate(&doc).unwrap();
        assert!(doc.contains("\"schema\":\"panda-obs-run-report-v1\""));
        assert!(doc.contains("\"exchange_s\""));
        assert!(doc.contains("\"per_subchunk\""));
        assert!(doc.contains("\"kind\":\"disk_write_done\""));
    }

    #[test]
    fn cross_array_overlap_requires_two_arrays() {
        // One array only → busy intervals belong to a single (node,
        // array) union → no overlap, however much they self-overlap.
        let rec = TimelineRecorder::new();
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        assert_eq!(report.cross_array_overlap_s, 0.0);

        // Two back-to-back recordings for different arrays on one node:
        // their measured spans (stamped [now-dur, now]) overlap.
        let rec = TimelineRecorder::new();
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::new(0, 0, 0),
                offset: 0,
                bytes: 64,
                dur: Duration::from_millis(50),
            },
        );
        rec.record(
            2,
            &Event::FetchReplied {
                key: SubchunkKey::new(0, 1, 0),
                bytes: 64,
                wait: Duration::from_millis(50),
            },
        );
        let report = RunReport::from_recorder(&rec);
        assert!(
            report.cross_array_overlap_s > 0.0,
            "overlapping spans of different arrays must register"
        );
        assert!(report.to_json().contains("\"cross_array_overlap_s\""));
    }

    #[test]
    fn per_request_reports_do_not_blend() {
        // Two concurrent requests on one node: each scoped report sees
        // only its own disk time; the global report sees both.
        let rec = TimelineRecorder::new();
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(11, 0, 0, 0),
                offset: 0,
                bytes: 256,
                dur: Duration::from_millis(6),
            },
        );
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(12, 0, 0, 0),
                offset: 0,
                bytes: 512,
                dur: Duration::from_millis(2),
            },
        );
        let global = RunReport::from_recorder(&rec);
        assert!((global.phases.get(Phase::Disk) - 0.008).abs() < 1e-9);

        let r11 = RunReport::for_request(&rec, 11);
        assert!((r11.phases.get(Phase::Disk) - 0.006).abs() < 1e-9);
        assert_eq!(r11.per_subchunk.len(), 1);
        assert_eq!(r11.per_subchunk[0].key.request, 11);
        assert_eq!(r11.per_subchunk[0].bytes, 256);
        assert!(r11.to_json().contains("\"request\":11"));

        let r12 = RunReport::for_request(&rec, 12);
        assert!((r12.phases.get(Phase::Disk) - 0.002).abs() < 1e-9);

        let empty = RunReport::for_request(&rec, 99);
        assert_eq!(empty.per_subchunk.len(), 0);
        assert_eq!(empty.wall_s, 0.0);
    }

    #[test]
    fn unknown_request_yields_empty_report_on_any_recorder() {
        // Timeline recorder with traffic: scoping to an id that never
        // ran is an empty report, not a panic, and still serializes.
        let rec = TimelineRecorder::new();
        drive(&rec);
        let report = RunReport::for_request(&rec, 424242);
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_subchunk.is_empty());
        assert!(report.per_node.is_empty());
        assert!(report.counters.is_none());
        for phase in Phase::ALL {
            assert_eq!(report.phases.get(phase), 0.0);
        }
        json::validate(&report.to_json()).unwrap();

        // Recorders with no timeline at all (NullRecorder) degrade the
        // same way — `timeline()` is None, not an error.
        let null = null_recorder();
        let report = RunReport::for_request(null.as_ref(), 1);
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_subchunk.is_empty());
    }

    #[test]
    fn mid_run_scope_only_counts_completed_subchunks() {
        // Phase durations are stamped when a subchunk's stage
        // completes, so a report taken mid-run contains exactly the
        // completed subchunks — an in-flight one contributes nothing
        // until its events land.
        let rec = TimelineRecorder::new();
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(7, 0, 0, 0),
                offset: 0,
                bytes: 256,
                dur: Duration::from_millis(3),
            },
        );
        let mid = RunReport::for_request(&rec, 7);
        assert_eq!(mid.per_subchunk.len(), 1);
        assert_eq!(mid.per_subchunk[0].key.subchunk, 0);
        assert!((mid.disk_s() - 0.003).abs() < 1e-9);

        // Subchunk 1 finishes after the snapshot: the old report is
        // unchanged, a fresh scope sees both.
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(7, 0, 0, 1),
                offset: 256,
                bytes: 256,
                dur: Duration::from_millis(5),
            },
        );
        assert_eq!(mid.per_subchunk.len(), 1);
        let done = RunReport::for_request(&rec, 7);
        assert_eq!(done.per_subchunk.len(), 2);
        assert!((done.disk_s() - 0.008).abs() < 1e-9);
    }

    #[test]
    fn phase_accessors_mirror_totals() {
        let rec = TimelineRecorder::new();
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        assert_eq!(report.exchange_s(), report.phases.get(Phase::Exchange));
        assert_eq!(report.disk_s(), report.phases.get(Phase::Disk));
        assert_eq!(report.reorg_s(), report.phases.get(Phase::Reorg));
        assert_eq!(report.throttle_s(), report.phases.get(Phase::Throttle));
        assert!((report.exchange_s() - 0.004).abs() < 1e-9);
        assert!((report.disk_s() - 0.008).abs() < 1e-9);
    }

    #[test]
    fn null_recorder_yields_empty_report() {
        let rec = null_recorder();
        let report = RunReport::from_recorder(rec.as_ref());
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_node.is_empty());
        assert!(report.per_subchunk.is_empty());
        assert!(report.counters.is_none());
        json::validate(&report.to_json()).unwrap();
    }
}
