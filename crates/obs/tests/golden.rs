//! Golden oracles for the telemetry aggregator: one fixed event stream,
//! fed into a `MetricsHub` and into a `TimelineRecorder`, must render the
//! committed `/metrics` exposition and `RunReport` JSON byte for byte.
//!
//! The stream covers every `EventKind`, two tenants, nodes that share a
//! hub shard and nodes that do not, several message tags, and both
//! sequential and seeking file-system accesses. Only values that depend
//! on the wall clock are masked: the `panda_uptime_seconds` sample and
//! the report's timestamp-derived `wall_s` / `cross_array_overlap_s`.
//!
//! To regenerate after an intended format change, run with
//! `PANDA_GOLDEN_BLESS=1` and review the diff of `tests/golden/`.

use std::time::Duration;

use panda_obs::{Event, MetricsHub, OpDir, Recorder, RunReport, SubchunkKey, TimelineRecorder};

const GOLDEN_METRICS: &str = include_str!("golden/metrics.txt");
const GOLDEN_REPORT: &str = include_str!("golden/run_report.json");

/// Tenant 0's and tenant 1's request ids (`((rank + 1) << 32) | n`).
const REQ_A: u64 = (1 << 32) | 1;
const REQ_B: u64 = (2 << 32) | 7;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Feed the fixed stream. Nodes 1 and 17 land on the same hub shard
/// (16 shards); nodes 4 and 9 land on shards of their own.
fn feed(rec: &dyn Recorder) {
    for (node, request, server) in [(4u32, REQ_A, 0usize), (9, REQ_B, 1)] {
        rec.record(
            node,
            &Event::RequestIssued {
                request,
                op: OpDir::Write,
                arrays: 2,
                pipeline_depth: 2,
            },
        );
        for c in 0..3usize {
            let key = SubchunkKey::scoped(request, server, (c % 2) as u32, c);
            let bytes = 4096 * (c as u64 + 1);
            rec.record(node, &Event::SubchunkPlanned { key, bytes });
            rec.record(
                node,
                &Event::FetchSent {
                    key,
                    piece: 0,
                    client: 1,
                },
            );
            rec.record(
                node,
                &Event::FetchReplied {
                    key,
                    bytes,
                    wait: us(120 + 37 * c as u64),
                },
            );
            rec.record(
                node,
                &Event::ReorgWorker {
                    key,
                    piece: 0,
                    bytes,
                    dur: us(15 + c as u64),
                },
            );
            rec.record(node, &Event::DiskWriteQueued { key, bytes });
            rec.record(
                node,
                &Event::DiskWriteDone {
                    key,
                    offset: 4096 * c as u64,
                    bytes,
                    dur: us(700 + 90 * c as u64),
                },
            );
            rec.record(node, &Event::DiskReadQueued { key, bytes });
            rec.record(
                node,
                &Event::DiskReadDone {
                    key,
                    offset: 4096 * c as u64,
                    bytes,
                    dur: us(300 + 11 * c as u64),
                },
            );
            rec.record(
                node,
                &Event::PushSent {
                    key,
                    piece: 0,
                    client: 17,
                    bytes,
                },
            );
        }
        rec.record(
            node,
            &Event::DiskSyncDone {
                files: 2,
                dur: us(2500),
            },
        );
    }
    for (node, request) in [(1u32, REQ_A), (17, REQ_B)] {
        rec.record(
            node,
            &Event::ClientPacked {
                request,
                array: 0,
                seq: 1,
                bytes: 8192,
                dur: us(42),
            },
        );
        rec.record(
            node,
            &Event::ClientUnpacked {
                request,
                array: 1,
                seq: 2,
                bytes: 2048,
                dur: us(9),
            },
        );
        rec.record(
            node,
            &Event::GroupSubmit {
                op: OpDir::Read,
                arrays: 2,
                pipeline_depth: 4,
            },
        );
    }
    for (node, to, tag, bytes, dur) in [
        (1u32, 4u32, 1u32, 64u64, 3u64),
        (1, 4, 3, 8192, 40),
        (17, 9, 3, 2048, 12),
        (4, 1, 2, 48, 2),
        (9, 17, 2, 48, 5),
        (4, 1, 15, 16, 1),
    ] {
        rec.record(
            node,
            &Event::MsgSent {
                to,
                tag,
                bytes,
                dur: us(dur),
            },
        );
        rec.record(
            to,
            &Event::MsgReceived {
                from: node,
                tag,
                bytes,
                wait: us(dur * 7),
            },
        );
    }
    for (node, file, offset, bytes, sequential) in [
        (4u32, "a.s0", 0u64, 4096u64, true),
        (4, "a.s0", 4096, 8192, true),
        (4, "a.s0", 65536, 4096, false),
        (9, "b.s1", 0, 12288, true),
        (9, "b.s1", 512, 512, false),
    ] {
        rec.record(
            node,
            &Event::FsWrite {
                file,
                offset,
                bytes,
                sequential,
                dur: us(bytes / 64),
            },
        );
        rec.record(
            node,
            &Event::FsSubmit {
                file,
                offset,
                bytes,
            },
        );
        rec.record(
            node,
            &Event::FsComplete {
                file,
                offset,
                bytes,
                queued: us(bytes / 512),
            },
        );
        rec.record(
            node,
            &Event::ThrottleSleep {
                bytes,
                write: true,
                dur: us(bytes / 128),
            },
        );
    }
    rec.record(
        9,
        &Event::FsRead {
            file: "b.s1",
            offset: 0,
            bytes: 12288,
            sequential: true,
            dur: us(90),
        },
    );
    rec.record(
        9,
        &Event::FsRead {
            file: "b.s1",
            offset: 4096,
            bytes: 100,
            sequential: false,
            dur: us(31),
        },
    );
    rec.record(
        4,
        &Event::FsSync {
            file: "a.s0",
            dur: us(1800),
        },
    );
    for (node, request, dur) in [(4u32, REQ_A, 5200u64), (1, REQ_A, 5600), (9, REQ_B, 6100)] {
        rec.record(
            node,
            &Event::CollectiveDone {
                request,
                op: OpDir::Write,
                dur: us(dur),
            },
        );
    }
    rec.record(
        4,
        &Event::AdmissionReject {
            request: (2 << 32) | 8,
            queued: 3,
            live: 4,
        },
    );
    rec.record(
        9,
        &Event::RequestError {
            request: (1 << 32) | 2,
            detail: "injected",
        },
    );
}

/// Replace the number after `"field":` with `0`.
fn mask_number(doc: &str, field: &str) -> String {
    let pat = format!("\"{field}\":");
    let start = doc.find(&pat).expect("field present") + pat.len();
    let len = doc[start..]
        .find([',', '}'])
        .expect("number is followed by a delimiter");
    format!("{}0{}", &doc[..start], &doc[start + len..])
}

fn bless(name: &str, text: &str) {
    if std::env::var_os("PANDA_GOLDEN_BLESS").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        std::fs::write(path.join(name), text).expect("write golden file");
    }
}

#[test]
fn metrics_exposition_matches_golden() {
    let hub = MetricsHub::new();
    feed(&hub);
    let text: String = hub
        .snapshot()
        .to_prometheus()
        .lines()
        .filter(|l| !l.starts_with("panda_uptime_seconds "))
        .map(|l| format!("{l}\n"))
        .collect();
    bless("metrics.txt", &text);
    assert_eq!(text, GOLDEN_METRICS);
}

#[test]
fn run_report_matches_golden() {
    let rec = TimelineRecorder::new();
    feed(&rec);
    let doc = RunReport::from_recorder(&rec).to_json();
    let doc = mask_number(&mask_number(&doc, "wall_s"), "cross_array_overlap_s");
    bless("run_report.json", &format!("{doc}\n"));
    assert_eq!(doc, GOLDEN_REPORT.trim_end());
}
