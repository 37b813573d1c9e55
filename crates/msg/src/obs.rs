//! Internal bridge from transports to the unified [`panda_obs`]
//! recorder API.
//!
//! Each endpoint owns one [`MsgObs`]. Every send/receive event is
//! counted into the fabric's shared [`FabricStats`] and, when one is
//! attached via [`crate::Transport::set_recorder`], forwarded to the
//! external recorder with per-message latency.

use std::sync::Arc;

use panda_obs::{Event, Recorder};

use crate::stats::FabricStats;

/// Observability state of one endpoint.
#[derive(Debug)]
pub(crate) struct MsgObs {
    /// This endpoint's fabric rank.
    node: u32,
    /// The fabric's shared counters.
    stats: Arc<FabricStats>,
    /// Externally attached recorder (null unless installed).
    external: Arc<dyn Recorder>,
}

impl MsgObs {
    /// State for rank `node` counting into `stats`.
    pub(crate) fn new(node: u32, stats: Arc<FabricStats>) -> Self {
        MsgObs {
            node,
            stats,
            external: panda_obs::null_recorder(),
        }
    }

    /// Attach an external recorder.
    pub(crate) fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.external = recorder;
    }

    /// Whether call sites should measure receive-wait durations.
    pub(crate) fn timed(&self) -> bool {
        self.external.enabled()
    }

    /// Count one event and forward it to the external recorder.
    pub(crate) fn emit(&self, event: &Event<'_>) {
        self.stats.record(event);
        if self.external.enabled() {
            self.external.record(self.node, event);
        }
    }
}
