//! In-process fabric: one endpoint per node over crossbeam channels.
//!
//! This is the production transport of the reproduction: the Panda
//! runtime runs every compute node and every I/O node as one OS thread
//! in a single process, so "MPI" becomes unbounded channels. Message
//! latency is effectively zero here — wall-clock performance figures
//! come from the calibrated model in `panda-model`, not from this
//! fabric; this fabric exists to move real bytes and prove the protocol.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use panda_obs::{Event, Recorder};

use crate::envelope::{Bytes, Envelope, NodeId, Payload};
use crate::error::MsgError;
use crate::obs::MsgObs;
use crate::stats::FabricStats;
use crate::transport::{MatchSpec, Transport};

/// Default blocking-receive timeout. Panda's protocol is deadlock-free;
/// a receive that waits this long indicates a bug, so we fail loudly.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Factory for a fully-connected set of [`InProcEndpoint`]s.
#[derive(Debug)]
pub struct InProcFabric;

impl InProcFabric {
    /// Create a fabric of `n` nodes and return its endpoints, index ==
    /// rank. Endpoints are meant to be moved into per-node threads.
    #[allow(clippy::new_ret_no_self)] // factory: the product is the endpoints
    pub fn new(n: usize) -> (Vec<InProcEndpoint>, Arc<FabricStats>) {
        Self::with_timeout(n, DEFAULT_RECV_TIMEOUT)
    }

    /// As [`InProcFabric::new`] with a custom receive timeout (tests use
    /// short timeouts to exercise the error path).
    pub fn with_timeout(
        n: usize,
        recv_timeout: Duration,
    ) -> (Vec<InProcEndpoint>, Arc<FabricStats>) {
        let stats = Arc::new(FabricStats::new());
        let mut txs: Vec<Sender<Envelope>> = Vec::with_capacity(n);
        let mut rxs: Vec<Receiver<Envelope>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let endpoints = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| InProcEndpoint {
                node: NodeId(rank),
                peers: txs.clone(),
                rx,
                pending: VecDeque::new(),
                obs: MsgObs::new(rank as u32, Arc::clone(&stats)),
                stats: Arc::clone(&stats),
                recv_timeout,
            })
            .collect();
        (endpoints, stats)
    }
}

/// One node's endpoint in an [`InProcFabric`].
#[derive(Debug)]
pub struct InProcEndpoint {
    node: NodeId,
    peers: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
    /// MPI-style unexpected-message queue: arrivals that did not match
    /// the spec of the receive in progress, kept in arrival order.
    pending: VecDeque<Envelope>,
    obs: MsgObs,
    stats: Arc<FabricStats>,
    recv_timeout: Duration,
}

impl InProcEndpoint {
    /// Shared statistics handle.
    pub fn stats(&self) -> &Arc<FabricStats> {
        &self.stats
    }

    fn take_pending(&mut self, spec: MatchSpec) -> Option<Envelope> {
        let pos = self.pending.iter().position(|e| spec.matches(e))?;
        self.pending.remove(pos)
    }

    /// Report a delivered message. `wait` is the time this endpoint
    /// spent blocked for it (zero when it was already buffered or when
    /// no enabled recorder asked for timing).
    fn note_recv(&self, env: &Envelope, wait: Duration) {
        self.obs.emit(&Event::MsgReceived {
            from: env.src.index() as u32,
            tag: env.tag,
            bytes: env.len() as u64,
            wait,
        });
    }

    fn send_payload(&mut self, dst: NodeId, tag: u32, payload: Payload) -> Result<(), MsgError> {
        let tx = self.peers.get(dst.index()).ok_or(MsgError::InvalidNode {
            node: dst,
            num_nodes: self.peers.len(),
        })?;
        let bytes = payload.len();
        tx.send(Envelope {
            src: self.node,
            tag,
            payload,
        })
        .map_err(|_| MsgError::Disconnected)?;
        self.obs.emit(&Event::MsgSent {
            to: dst.index() as u32,
            tag,
            bytes: bytes as u64,
            dur: Duration::ZERO,
        });
        Ok(())
    }
}

impl Transport for InProcEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, dst: NodeId, tag: u32, payload: Vec<u8>) -> Result<(), MsgError> {
        self.send_payload(dst, tag, Payload::Inline(payload))
    }

    /// Zero-copy handoff: head and body cross the channel as the two
    /// buffers they already are — in particular an `Arc<[u8]>` body is
    /// shared with the receiver, never duplicated.
    fn send_vectored(
        &mut self,
        dst: NodeId,
        tag: u32,
        head: Vec<u8>,
        body: Bytes,
    ) -> Result<(), MsgError> {
        self.send_payload(dst, tag, Payload::Framed { head, body })
    }

    fn recv_matching(&mut self, spec: MatchSpec) -> Result<Envelope, MsgError> {
        if let Some(env) = self.take_pending(spec) {
            self.note_recv(&env, Duration::ZERO);
            return Ok(env);
        }
        let start = self.obs.timed().then(Instant::now);
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(env) => {
                    if spec.matches(&env) {
                        let wait = start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO);
                        self.note_recv(&env, wait);
                        return Ok(env);
                    }
                    self.pending.push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(MsgError::Timeout {
                        after_ms: self.recv_timeout.as_millis() as u64,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(MsgError::Disconnected),
            }
        }
    }

    fn try_recv_matching(&mut self, spec: MatchSpec) -> Result<Option<Envelope>, MsgError> {
        if let Some(env) = self.take_pending(spec) {
            self.note_recv(&env, Duration::ZERO);
            return Ok(Some(env));
        }
        loop {
            match self.rx.try_recv() {
                Ok(env) => {
                    if spec.matches(&env) {
                        self.note_recv(&env, Duration::ZERO);
                        return Ok(Some(env));
                    }
                    self.pending.push_back(env);
                }
                Err(crossbeam::channel::TryRecvError::Empty) => return Ok(None),
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    return Err(MsgError::Disconnected)
                }
            }
        }
    }

    fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.obs.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ping_pong_across_threads() {
        let (mut eps, _stats) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            let env = b.recv().unwrap();
            assert_eq!(env.src, NodeId(0));
            assert_eq!(env.payload, b"ping");
            b.send(NodeId(0), 2, b"pong".to_vec()).unwrap();
        });
        a.send(NodeId(1), 1, b"ping".to_vec()).unwrap();
        let env = a.recv_matching(MatchSpec::from(NodeId(1), 2)).unwrap();
        assert_eq!(env.payload, b"pong");
        t.join().unwrap();
    }

    #[test]
    fn self_send_works() {
        let (mut eps, _) = InProcFabric::new(1);
        let ep = &mut eps[0];
        ep.send(NodeId(0), 9, vec![42]).unwrap();
        let env = ep.recv().unwrap();
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.payload, vec![42]);
    }

    #[test]
    fn selective_receive_buffers_unmatched() {
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(NodeId(1), 1, b"first".to_vec()).unwrap();
        a.send(NodeId(1), 2, b"second".to_vec()).unwrap();
        // Receive tag 2 first; tag 1 must be buffered, not lost.
        let env2 = b.recv_matching(MatchSpec::tag(2)).unwrap();
        assert_eq!(env2.payload, b"second");
        let env1 = b.recv_matching(MatchSpec::tag(1)).unwrap();
        assert_eq!(env1.payload, b"first");
    }

    #[test]
    fn pairwise_fifo_order() {
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..100u8 {
            a.send(NodeId(1), 5, vec![i]).unwrap();
        }
        for i in 0..100u8 {
            let env = b.recv_matching(MatchSpec::tag(5)).unwrap();
            assert_eq!(env.payload, vec![i]);
        }
    }

    #[test]
    fn invalid_destination_rejected() {
        let (mut eps, _) = InProcFabric::new(2);
        let err = eps[0].send(NodeId(5), 0, vec![]).unwrap_err();
        assert!(matches!(err, MsgError::InvalidNode { .. }));
    }

    #[test]
    fn recv_times_out() {
        let (mut eps, _) = InProcFabric::with_timeout(2, Duration::from_millis(20));
        let err = eps[0].recv().unwrap_err();
        assert!(matches!(err, MsgError::Timeout { .. }));
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let (mut eps, _) = InProcFabric::new(2);
        assert_eq!(eps[0].try_recv_matching(MatchSpec::any()).unwrap(), None);
    }

    #[test]
    fn try_recv_finds_buffered_message() {
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(NodeId(1), 1, vec![1]).unwrap();
        a.send(NodeId(1), 2, vec![2]).unwrap();
        // Pull tag 2 into hand; tag 1 lands in the pending queue.
        b.recv_matching(MatchSpec::tag(2)).unwrap();
        let got = b.try_recv_matching(MatchSpec::tag(1)).unwrap().unwrap();
        assert_eq!(got.payload, vec![1]);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (mut eps, stats) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(NodeId(1), 0, vec![0; 100]).unwrap();
        a.send(NodeId(1), 0, vec![0; 50]).unwrap();
        b.recv().unwrap();
        assert_eq!(stats.msgs_sent(), 2);
        assert_eq!(stats.bytes_sent(), 150);
        assert_eq!(stats.msgs_received(), 1);
        assert_eq!(stats.bytes_received(), 100);
    }

    #[test]
    fn external_recorder_sees_tagged_events() {
        use panda_obs::{EventKind, TimelineRecorder};
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let rec: Arc<TimelineRecorder> = Arc::new(TimelineRecorder::new());
        a.set_recorder(rec.clone());
        b.set_recorder(rec.clone());
        a.send(NodeId(1), 4, vec![7; 32]).unwrap();
        b.recv().unwrap();
        let events = rec.timeline().unwrap();
        let sent: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::MsgSent)
            .collect();
        let recvd: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::MsgReceived)
            .collect();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].node, 0);
        assert_eq!(sent[0].peer, Some(1));
        assert_eq!(sent[0].bytes, 32);
        assert_eq!(sent[0].tag, Some(4));
        assert_eq!(recvd.len(), 1);
        assert_eq!(recvd[0].node, 1);
        assert_eq!(recvd[0].peer, Some(0));
        // The recorder's own counters saw the same traffic.
        let tag = rec.counters().unwrap().tag(4);
        assert_eq!((tag.msgs, tag.bytes), (1, 32));
    }

    #[test]
    fn vectored_send_is_zero_copy_and_byte_identical() {
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let body: Arc<[u8]> = Arc::from(vec![9u8; 64]);
        a.send_vectored(NodeId(1), 3, vec![1, 2, 3], Bytes::Shared(body.clone()))
            .unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.len(), 3 + 64);
        // The logical bytes are head ++ body ...
        let mut want = vec![1u8, 2, 3];
        want.extend_from_slice(&[9u8; 64]);
        assert_eq!(env.payload, want);
        // ... and the body is the *same allocation* the sender holds.
        match env.payload {
            Payload::Framed {
                body: Bytes::Shared(arc),
                ..
            } => assert!(Arc::ptr_eq(&arc, &body), "body was copied"),
            other => panic!("expected a shared framed payload, got {other:?}"),
        }
    }

    #[test]
    fn many_to_one_delivery_is_complete() {
        let (mut eps, _) = InProcFabric::new(5);
        let mut sink = eps.remove(4);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    for i in 0..50u8 {
                        ep.send(NodeId(4), ep.node().index() as u32, vec![i])
                            .unwrap();
                    }
                })
            })
            .collect();
        let mut counts = [0usize; 4];
        for _ in 0..200 {
            let env = sink.recv().unwrap();
            counts[env.src.index()] += 1;
        }
        assert_eq!(counts, [50, 50, 50, 50]);
        for h in handles {
            h.join().unwrap();
        }
    }
}
