//! Fabric-wide message statistics.
//!
//! The paper's fast-disk experiments reason about "total number of
//! messages and message sizes" (§3); these counters let the test suite
//! and the model-validation tests check the real runtime against the
//! message counts the performance model assumes.
//!
//! [`FabricStats`] is a set of plain relaxed counters owned by the
//! fabric. Transports report [`panda_obs::Event::MsgSent`] /
//! [`panda_obs::Event::MsgReceived`] events, and each endpoint's
//! observability bridge bumps these counters from them whatever
//! recorder is attached: two relaxed adds per message, plus a
//! lock-free tag-slot probe and two more adds per send.

use std::sync::atomic::{AtomicU64, Ordering};

use panda_obs::{Event, TagStats, TagTable};

/// Shared counters for one fabric. All counters are monotone — they
/// are diagnostics, not synchronization.
///
/// Per-tag send counts let higher layers cross-validate against the
/// performance model: the model's predicted data/control message counts
/// must equal the real fabric's per-tag counts for the same collective.
#[derive(Debug, Default)]
pub struct FabricStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_received: AtomicU64,
    bytes_received: AtomicU64,
    tags: TagTable,
}

impl FabricStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one transport event; other events are ignored.
    pub(crate) fn record(&self, event: &Event<'_>) {
        match *event {
            Event::MsgSent { tag, bytes, .. } => {
                self.msgs_sent.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
                self.tags.add(tag, bytes);
            }
            Event::MsgReceived { bytes, .. } => {
                self.msgs_received.fetch_add(1, Ordering::Relaxed);
                self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Total messages sent through the fabric.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total messages delivered to receivers.
    pub fn msgs_received(&self) -> u64 {
        self.msgs_received.load(Ordering::Relaxed)
    }

    /// Total payload bytes delivered.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Send counts for one tag (zero if the tag was never used).
    pub fn tag_counts(&self, tag: u32) -> TagStats {
        self.tags.get(tag)
    }

    /// All tags seen so far, with their counts, sorted by tag.
    pub fn all_tag_counts(&self) -> Vec<TagStats> {
        self.tags.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn send(s: &FabricStats, tag: u32, bytes: u64) {
        s.record(&Event::MsgSent {
            to: 1,
            tag,
            bytes,
            dur: Duration::ZERO,
        });
    }

    #[test]
    fn counters_accumulate() {
        let s = FabricStats::new();
        send(&s, 1, 10);
        send(&s, 2, 5);
        s.record(&Event::MsgReceived {
            from: 0,
            tag: 1,
            bytes: 10,
            wait: Duration::ZERO,
        });
        assert_eq!(s.msgs_sent(), 2);
        assert_eq!(s.bytes_sent(), 15);
        assert_eq!(s.msgs_received(), 1);
        assert_eq!(s.bytes_received(), 10);
    }

    #[test]
    fn per_tag_counts() {
        let s = FabricStats::new();
        send(&s, 3, 100);
        send(&s, 3, 50);
        send(&s, 7, 1);
        let counts = |tag| {
            let t = s.tag_counts(tag);
            (t.msgs, t.bytes)
        };
        assert_eq!(counts(3), (2, 150));
        assert_eq!(counts(7), (1, 1));
        assert_eq!(counts(99), (0, 0));
        let all = s.all_tag_counts();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].tag, 3);
    }
}
