//! Live service health: the gauges behind `/healthz`.
//!
//! Each server publishes three gauges after every scheduler pass —
//! admission-queue depth, live-request count, and disk-stage backlog —
//! plus a rejection counter bumped on every [`panda_obs::Event::AdmissionReject`].
//! A [`HealthSnapshot`] folds them into the three-state
//! [`HealthStatus`] the front door reports: `ok` when nothing waits,
//! `degraded` while any server's FIFO queue is non-empty, `unhealthy`
//! once a server's queue is at the configured cap — the point where the
//! next session request would be refused with
//! `AdmissionIssue::QueueFull`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One server's published gauges.
#[derive(Debug, Default)]
struct ServerGauges {
    queued: AtomicUsize,
    live: AtomicUsize,
    disk_backlog: AtomicUsize,
    rejected: AtomicU64,
}

/// Shared gauge registry: servers write, the scrape surface reads.
#[derive(Debug)]
pub struct ServiceHealth {
    max_concurrent: usize,
    max_queued: usize,
    servers: Box<[ServerGauges]>,
}

impl ServiceHealth {
    /// Zeroed gauges for `num_servers` servers under the deployment's
    /// admission caps.
    pub(crate) fn new(num_servers: usize, max_concurrent: usize, max_queued: usize) -> Self {
        ServiceHealth {
            max_concurrent,
            max_queued,
            servers: (0..num_servers).map(|_| ServerGauges::default()).collect(),
        }
    }

    /// Publish one server's current scheduler state (relaxed stores —
    /// this runs on every serve-loop pass).
    pub(crate) fn publish(&self, server: usize, queued: usize, live: usize, disk_backlog: usize) {
        let g = &self.servers[server];
        g.queued.store(queued, Ordering::Relaxed);
        g.live.store(live, Ordering::Relaxed);
        g.disk_backlog.store(disk_backlog, Ordering::Relaxed);
    }

    /// Count one admission rejection on `server`.
    pub(crate) fn note_reject(&self, server: usize) {
        self.servers[server]
            .rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The configured live-collective cap.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// The configured admission-queue cap.
    pub fn max_queued(&self) -> usize {
        self.max_queued
    }

    /// Read every gauge and derive the service status.
    pub fn snapshot(&self) -> HealthSnapshot {
        let per_server: Vec<ServerHealth> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, g)| ServerHealth {
                server: i,
                queued: g.queued.load(Ordering::Relaxed),
                live: g.live.load(Ordering::Relaxed),
                disk_backlog: g.disk_backlog.load(Ordering::Relaxed),
                rejected: g.rejected.load(Ordering::Relaxed),
            })
            .collect();
        let queued = per_server.iter().map(|s| s.queued).max().unwrap_or(0);
        let status = if self.max_queued > 0 && queued >= self.max_queued {
            HealthStatus::Unhealthy
        } else if queued > 0 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        HealthSnapshot {
            status,
            queued,
            live: per_server.iter().map(|s| s.live).sum(),
            disk_backlog: per_server.iter().map(|s| s.disk_backlog).sum(),
            rejected: per_server.iter().map(|s| s.rejected).sum(),
            max_concurrent: self.max_concurrent,
            max_queued: self.max_queued,
            per_server,
        }
    }
}

/// The three-state `/healthz` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// No request is waiting anywhere.
    Ok,
    /// At least one server's admission queue is non-empty: requests are
    /// being delayed, not refused.
    Degraded,
    /// At least one server's queue has reached the configured cap: the
    /// next session request there is refused (`QueueFull`).
    Unhealthy,
}

impl HealthStatus {
    /// Stable lower-case name, used in the `/healthz` JSON body.
    pub fn name(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }
}

/// One server's gauges at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHealth {
    /// Server index.
    pub server: usize,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Collectives currently live.
    pub live: usize,
    /// Disk commands issued and not yet completed (subchunk writes and
    /// reads, plus a request's close). A command counts whichever
    /// thread applies it: the pinned disk task, or the scheduler itself
    /// when the command moves fewer bytes than the 128 KiB grain and the
    /// device last answered faster than a hand-off to the task. An
    /// inline command completes within the scheduler pass that issued
    /// it, so a fast device shows a backlog near zero.
    pub disk_backlog: usize,
    /// Admission rejections since launch.
    pub rejected: u64,
}

/// The whole deployment's health at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Derived service status.
    pub status: HealthStatus,
    /// Deepest admission queue across servers.
    pub queued: usize,
    /// Live collectives summed over servers.
    pub live: usize,
    /// Disk-stage backlog summed over servers.
    pub disk_backlog: usize,
    /// Admission rejections summed over servers.
    pub rejected: u64,
    /// The configured live-collective cap.
    pub max_concurrent: usize,
    /// The configured admission-queue cap.
    pub max_queued: usize,
    /// Per-server gauges.
    pub per_server: Vec<ServerHealth>,
}

impl HealthSnapshot {
    /// Render as the `/healthz` JSON body.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"status\":\"{}\",\"queued\":{},\"live\":{},\"disk_backlog\":{},\"rejected\":{},\"max_concurrent\":{},\"max_queued\":{},\"servers\":[",
            self.status.name(),
            self.queued,
            self.live,
            self.disk_backlog,
            self.rejected,
            self.max_concurrent,
            self.max_queued,
        );
        for (i, s) in self.per_server.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"server\":{},\"queued\":{},\"live\":{},\"disk_backlog\":{},\"rejected\":{}}}",
                s.server, s.queued, s.live, s.disk_backlog, s.rejected
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_tracks_queue_depth() {
        let health = ServiceHealth::new(2, 4, 3);
        assert_eq!(health.snapshot().status, HealthStatus::Ok);

        health.publish(0, 1, 4, 2);
        let snap = health.snapshot();
        assert_eq!(snap.status, HealthStatus::Degraded);
        assert_eq!(snap.queued, 1);
        assert_eq!(snap.live, 4);
        assert_eq!(snap.disk_backlog, 2);

        health.publish(1, 3, 4, 0);
        assert_eq!(health.snapshot().status, HealthStatus::Unhealthy);

        health.publish(0, 0, 0, 0);
        health.publish(1, 0, 1, 0);
        assert_eq!(health.snapshot().status, HealthStatus::Ok);
    }

    #[test]
    fn zero_queue_cap_never_reports_unhealthy_from_queueing() {
        // With max_queued = 0 session requests are rejected rather than
        // queued, so the queue-depth rule cannot fire; fleet requests
        // (which always queue) still surface as degraded.
        let health = ServiceHealth::new(1, 1, 0);
        health.publish(0, 2, 1, 0);
        assert_eq!(health.snapshot().status, HealthStatus::Degraded);
    }

    #[test]
    fn rejections_accumulate_and_render() {
        let health = ServiceHealth::new(2, 4, 3);
        health.note_reject(1);
        health.note_reject(1);
        let snap = health.snapshot();
        assert_eq!(snap.rejected, 2);
        assert_eq!(snap.per_server[1].rejected, 2);
        let body = snap.to_json();
        panda_obs::json::validate(&body).expect("healthz body is valid JSON");
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"rejected\":2"));
    }
}
