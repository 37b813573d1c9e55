//! The Panda server: the I/O-node side of collective operations.
//!
//! Each server runs [`ServerNode::run`] in its own thread. Since the
//! multi-tenant service mode landed, that loop is a *request scheduler*
//! rather than a one-collective-at-a-time handler: up to
//! `max_concurrent_collectives` admitted requests are live at once,
//! each lowered into its own [`CollectiveSchedule`] and advanced as a
//! `RequestRun` state machine. One pass of the loop
//!
//! 1. **pumps** every live run (priority order, round-robin within a
//!    priority): issuing fetches, assembling reply bursts, issuing
//!    completed subchunks to the disk stage, scattering prefetched read
//!    buffers;
//! 2. **drains the transport** without blocking, routing `Data` replies
//!    to their run by the request id they echo, admitting new
//!    collectives, and serving the baseline raw plane;
//! 3. **drains disk completions** (recycled write buffers, filled read
//!    buffers, close acknowledgements) from the disk stage;
//! 4. blocks only when nothing progressed — on the disk channel when
//!    disk work is outstanding, on the transport otherwise.
//!
//! The **disk stage** is created once per server and serves every
//! request: it keeps a per-request file table and applies `DiskCmd`s
//! strictly in issue order, which interleaves requests at subchunk
//! granularity while preserving each request's per-file FIFO — so every
//! file is still written/read in exactly the serial schedule's order
//! and files stay byte-identical at any depth and any concurrency.
//! Write submission uses the `depth - 1` completion window per request,
//! and fsync placement honours each request's own [`SyncPolicy`] (per
//! write, per file as its last step lands, or one coalesced barrier at
//! the request's close) — per-request fsync accounting, not
//! fleet-global.
//!
//! **Hand-offs.** Work moves to another thread only when it outweighs
//! the hand-off, measured against one grain (`GRAIN_BYTES`, 128 KiB).
//! A reorganization burst below the grain (a write batch's pending
//! payloads, a read step's subchunk) runs on the scheduler instead of
//! the [`IoPool`] workers. Two threads run the disk stage, a pinned disk
//! task and the scheduler: the scheduler applies a `Write` or `Read`
//! itself only when nothing is queued to the task (so issue order
//! holds), the command moves fewer bytes than the grain, and this
//! server's last measured device time is below the last measured
//! hand-off latency (the pickup delay of a command that found the task
//! idle). `Open`, `Close` and writes that sync always go to the task,
//! so an fsync or a file preallocation never stalls the scheduler. The
//! scheduler sizes read buffers itself, so buffers are allocated on one
//! thread whichever thread fills them.
//!
//! **Admission** happens at the master server: a request beyond the
//! live cap waits in a bounded queue, and a single-participant
//! (session) request is refused with a typed [`Msg::Reject`] when the
//! queue is full — surfaced to the submitter as
//! [`PandaError::Admission`]. Multi-participant requests are *never*
//! rejected: their non-submitting participants are already blocked in
//! the collective with no abort path, so a rejection would strand
//! them; such requests always queue. Peers admit unconditionally —
//! the master already made the decision when it relayed.

use std::collections::{HashMap, VecDeque};
use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use panda_fs::{FileHandle, FileSystem, FsError, SyncPolicy};
use panda_msg::{Bytes, MatchSpec, NodeId, Transport};
use panda_obs::{Event, OpDir, Recorder, SubchunkKey};
use panda_schema::{copy, Region, SchemaError};

use crate::error::{AdmissionIssue, PandaError};
use crate::health::ServiceHealth;
use crate::plan::{CollectiveSchedule, ScheduleStep};
use crate::pool::{IoPool, GRAIN_BYTES};
use crate::protocol::{
    recv_msg, send_data, send_msg, try_recv_msg, CollectiveRequest, Msg, OpKind,
};

/// How long the scheduler parks on the disk channel before re-polling
/// the transport, when disk work is outstanding but nothing else moved.
const DISK_PARK: Duration = Duration::from_micros(200);

/// One I/O node.
pub struct ServerNode {
    transport: Box<dyn Transport>,
    fs: Arc<dyn FileSystem>,
    /// 0-based index among the servers.
    server_idx: usize,
    num_clients: usize,
    num_servers: usize,
    /// Live-collective cap (admission control, master only).
    max_concurrent: usize,
    /// Wait-queue cap beyond the live collectives (master only).
    max_queued: usize,
    /// Session recorder; events are tagged with this server's fabric
    /// rank. Durations are measured only while it is enabled.
    recorder: Arc<dyn Recorder>,
    /// Shared health gauges: this server publishes its queue depth,
    /// live-request count, and disk backlog after every scheduler pass.
    health: Arc<ServiceHealth>,
    /// Open handles for baseline raw operations, keyed by file name.
    raw_handles: HashMap<String, Box<dyn FileHandle>>,
    /// Per-client flag: has this client sent `RawDone` for the current
    /// baseline op? Indexed by client rank.
    raw_done: Vec<bool>,
    /// Number of set flags in [`ServerNode::raw_done`].
    raw_done_count: usize,
    /// Worker pool shared by the pinned disk task and the parallel
    /// reorganization passes above the grain.
    pool: IoPool,
}

fn op_dir(op: OpKind) -> OpDir {
    match op {
        OpKind::Write => OpDir::Write,
        OpKind::Read => OpDir::Read,
    }
}

/// A subchunk being assembled inside a write run's window.
struct InFlight {
    /// Assembly buffer (recycled through the disk stage). Empty until
    /// its piece arrives for an identity step.
    buf: Vec<u8>,
    /// Pieces still missing.
    remaining: usize,
    /// The step is one whole piece ([`crate::plan::PlanSubchunk::is_identity`]):
    /// its payload is moved in as `buf` rather than copied.
    identity: bool,
}

/// A fetched piece that arrived but has not been assembled yet.
struct PendingPiece {
    /// Step index within the run's schedule.
    step: usize,
    /// Piece index within the step's subchunk.
    piece: usize,
    /// The piece's global-array region.
    region: Region,
    /// The packed payload.
    payload: Bytes,
}

/// One live collective on this server: the per-request state that used
/// to be the whole server's state. Everything here is scoped to a
/// single request id, which is what lets N of these interleave on the
/// shared transport, worker pool, and disk stage.
struct RequestRun {
    request: u64,
    priority: u8,
    /// Fabric ranks of the participating compute nodes, indexed by a
    /// plan piece's mesh-local `client`.
    participants: Vec<u32>,
    dir: OpDir,
    depth: usize,
    sched: CollectiveSchedule,
    /// Start instant, for the `CollectiveDone` duration.
    t_op: Option<Instant>,
    /// Per-request fetch/push sequence counter (unique within the run;
    /// replies are routed by request id first, then seq).
    seq: u64,
    /// seq → (step index, piece index) for in-flight fetches.
    seq_map: HashMap<u64, (usize, usize)>,
    /// Write direction: subchunks being assembled, oldest first.
    window: VecDeque<InFlight>,
    /// Oldest step still in the window.
    front: usize,
    /// Next step to issue fetches for.
    next: usize,
    /// Pooled buffers alive across the exchange and disk stages; never
    /// more than `depth`.
    circulating: usize,
    /// Write direction, depth > 1: buffers allocated past the pool
    /// while every pooled one was busy. Each is dropped, not pooled,
    /// when a buffer next comes back from the disk stage.
    overflow: usize,
    /// Drained buffers ready for reuse.
    free_bufs: Vec<Vec<u8>>,
    /// Write commands issued to the disk stage whose buffer has not been
    /// recycled yet — the per-request disk queue bound.
    disk_queued: usize,
    /// Replies awaiting this pump's parallel assembly pass.
    pending: Vec<PendingPiece>,
    /// Read direction: steps whose disk read has been issued.
    reads_issued: usize,
    /// Read direction: next step to scatter to clients.
    next_scatter: usize,
    /// Read direction: prefetched buffers, in schedule order.
    ready_bufs: VecDeque<Vec<u8>>,
    /// Whether `DiskCmd::Close` has been sent.
    close_sent: bool,
}

impl RequestRun {
    /// Placeholder swapped into the live table while a run is pumped.
    fn hollow() -> Self {
        RequestRun {
            request: 0,
            priority: 0,
            participants: Vec::new(),
            dir: OpDir::Write,
            depth: 1,
            sched: CollectiveSchedule {
                steps: Vec::new(),
                files: Vec::new(),
                empty_files: Vec::new(),
                sync_policy: SyncPolicy::PerCollective,
            },
            t_op: None,
            seq: 0,
            seq_map: HashMap::new(),
            window: VecDeque::new(),
            front: 0,
            next: 0,
            circulating: 0,
            overflow: 0,
            free_bufs: Vec::new(),
            disk_queued: 0,
            pending: Vec::new(),
            reads_issued: 0,
            next_scatter: 0,
            ready_bufs: VecDeque::new(),
            close_sent: false,
        }
    }
}

/// Scheduler state local to one [`ServerNode::run`] call.
struct SchedState {
    /// Live runs (unordered; pump order is derived per pass).
    live: Vec<RequestRun>,
    /// Admitted-but-waiting requests (master only).
    queue: VecDeque<CollectiveRequest>,
    /// Master only: per-request completion count and submitter rank.
    done: HashMap<u64, DoneTrack>,
    /// Round-robin cursor over equal-priority live runs.
    rr: usize,
    /// Set by `Msg::Shutdown`; the loop exits once drained.
    draining: bool,
    /// Disk commands awaiting a completion (`Buffer`/`Closed`), whichever
    /// thread applies them.
    disk_pending: usize,
}

struct DoneTrack {
    /// Servers (including this one) that finished the request.
    count: usize,
    /// Fabric rank the `Complete` goes to.
    submitter: u32,
}

/// A file to open at the start of a request's disk work.
struct OpenSpec {
    name: String,
    /// Steps targeting the file (per-file fsync countdown).
    steps: usize,
    /// Final length, for write-side preallocation.
    bytes: u64,
}

/// One unit of work for the disk stage. Commands of one request are
/// issued in schedule order; commands of different requests interleave
/// freely — the stage applies them in issue order, which preserves
/// per-request (and hence per-file) FIFO either way.
enum DiskCmd {
    /// Begin a request: create/open its files (preallocating written
    /// ones), create-and-sync its empty files, set its sync policy and
    /// completion window.
    Open {
        request: u64,
        write: bool,
        sync_policy: SyncPolicy,
        /// Submitted-but-uncompleted writes allowed per request before
        /// the stage blocks on a completion (`depth - 1`).
        window: usize,
        files: Vec<OpenSpec>,
        empty_files: Vec<String>,
    },
    /// Write one completed subchunk (write direction).
    Write {
        request: u64,
        file: usize,
        key: SubchunkKey,
        offset: u64,
        buf: Vec<u8>,
    },
    /// Fill `buf`, already sized by the scheduler, with one subchunk
    /// (read direction).
    Read {
        request: u64,
        file: usize,
        key: SubchunkKey,
        offset: u64,
        buf: Vec<u8>,
    },
    /// End a request: drain its in-flight writes, run its
    /// per-collective sync barrier, drop its file table.
    Close { request: u64 },
}

/// A completion from the disk stage back to the scheduler.
enum DiskOut {
    /// A `Write`'s buffer finished its disk trip and can be reused, or
    /// a `Read`'s buffer was filled and is ready to scatter; the run's
    /// direction tells which.
    Buffer { request: u64, buf: Vec<u8> },
    /// The request's disk work is fully retired (synced per policy).
    Closed { request: u64 },
}

/// The disk stage's per-file state.
struct DiskFile {
    handle: Box<dyn FileHandle>,
    /// Steps left until this file's last write is issued — the
    /// per-file sync policy's fsync countdown.
    remaining: usize,
    /// Writes submitted to the backend but not yet recycled. Zero for
    /// synchronous backends, whose `submit_write` completes inline.
    in_flight: usize,
}

/// The disk stage's per-request state.
struct DiskRun {
    files: Vec<DiskFile>,
    sync_policy: SyncPolicy,
    window: usize,
    total_in_flight: usize,
}

/// Drain one file's finished submissions back to the scheduler.
fn drain_file(
    f: &mut DiskFile,
    total: &mut usize,
    block: bool,
    request: u64,
    done: &mut dyn FnMut(DiskOut),
) -> Result<(), FsError> {
    for buf in f.handle.drain_completions(block)? {
        f.in_flight -= 1;
        *total -= 1;
        done(DiskOut::Buffer { request, buf });
    }
    Ok(())
}

/// The disk stage: the only code that touches this server's files, for
/// every request the server ever serves. Two threads run it, the pinned
/// disk task ([`run_disk_task`]) and the scheduler itself for fast
/// sub-grain commands ([`DiskLink::submit`]), so there is one copy of
/// the disk logic and one per-request file table. An `FsError` is fatal
/// for the server (as it always was).
struct DiskStage {
    recorder: Arc<dyn Recorder>,
    node: u32,
    fs: Arc<dyn FileSystem>,
    runs: HashMap<u64, DiskRun>,
    /// Wall time of the last `Write` (up to, not including, a per-file
    /// sync) or `Read`, on whichever thread applied it. Starts at `MAX`:
    /// an unmeasured device counts as slow.
    device: Duration,
    /// Last measured hand-off latency: how long a command that found the
    /// pinned task idle waited for the task to pick it up.
    handoff: Duration,
}

impl DiskStage {
    fn new(recorder: Arc<dyn Recorder>, node: u32, fs: Arc<dyn FileSystem>) -> Self {
        DiskStage {
            recorder,
            node,
            fs,
            runs: HashMap::new(),
            device: Duration::MAX,
            handoff: Duration::ZERO,
        }
    }

    /// Whether `cmd` is cheaper to apply on the scheduler than to hand
    /// to the (idle) task: a `Write` or `Read` of fewer than
    /// `GRAIN_BYTES`, while the device answers faster than a hand-off.
    /// `Open`, `Close` and a write that syncs stay on the task: they
    /// preallocate or fsync, which must neither stall the scheduler nor
    /// move file allocations between threads.
    fn runs_inline(&self, cmd: &DiskCmd) -> bool {
        let (DiskCmd::Write {
            request, file, buf, ..
        }
        | DiskCmd::Read {
            request, file, buf, ..
        }) = cmd
        else {
            return false;
        };
        let Some(run) = self.runs.get(request) else {
            return false;
        };
        let syncs = matches!(cmd, DiskCmd::Write { .. })
            && match run.sync_policy {
                SyncPolicy::PerWrite => true,
                SyncPolicy::PerFile => run.files[*file].remaining == 1,
                SyncPolicy::PerCollective => false,
            };
        buf.len() < GRAIN_BYTES && self.device < self.handoff && !syncs
    }

    /// Apply one command, reporting its completions through `done`.
    fn apply(&mut self, cmd: DiskCmd, done: &mut dyn FnMut(DiskOut)) -> Result<(), FsError> {
        let DiskStage {
            recorder,
            node,
            fs,
            runs,
            device,
            ..
        } = self;
        let (recorder, node) = (&**recorder, *node);
        let record_sync = |files: u32, t: Option<Instant>| {
            if let Some(t) = t {
                recorder.record(
                    node,
                    &Event::DiskSyncDone {
                        files,
                        dur: t.elapsed(),
                    },
                );
            }
        };
        match cmd {
            DiskCmd::Open {
                request,
                write,
                sync_policy,
                window,
                files,
                empty_files,
            } => {
                // Arrays with no data on this server still get their
                // (empty) file created and synced.
                for name in &empty_files {
                    let mut file = fs.create(name)?;
                    file.sync()?;
                }
                let mut table = Vec::with_capacity(files.len());
                for spec in files {
                    let handle = if write {
                        let mut h = fs.create(&spec.name)?;
                        h.preallocate(spec.bytes)?;
                        h
                    } else {
                        fs.open(&spec.name)?
                    };
                    table.push(DiskFile {
                        handle,
                        remaining: spec.steps,
                        in_flight: 0,
                    });
                }
                runs.insert(
                    request,
                    DiskRun {
                        files: table,
                        sync_policy,
                        window,
                        total_in_flight: 0,
                    },
                );
            }
            DiskCmd::Write {
                request,
                file,
                key,
                offset,
                buf,
            } => {
                let Some(run) = runs.get_mut(&request) else {
                    return Ok(()); // request already closed (cannot happen)
                };
                let bytes = buf.len() as u64;
                let t_disk = Instant::now();
                let write_done = || {
                    if recorder.enabled() {
                        recorder.record(
                            node,
                            &Event::DiskWriteDone {
                                key,
                                offset,
                                bytes,
                                dur: t_disk.elapsed(),
                            },
                        );
                    }
                };
                let f = &mut run.files[file];
                if matches!(run.sync_policy, SyncPolicy::PerWrite) {
                    // The paper's semantics: fsync after every write
                    // operation. Strictly synchronous by definition.
                    f.handle.write_at(offset, &buf)?;
                    write_done();
                    let t_sync = recorder.enabled().then(Instant::now);
                    f.handle.sync()?;
                    record_sync(1, t_sync);
                    done(DiskOut::Buffer { request, buf });
                } else {
                    // Submission path: hand the buffer to the backend
                    // and move on. Synchronous backends complete inline
                    // and return the buffer; a submission-queue backend
                    // keeps it until a completion thread lands the
                    // write, so the stage runs ahead of the device by up
                    // to this *request's* window. For a deferred write
                    // `DiskWriteDone` is the time spent issuing: the
                    // device time surfaces later as `FsWrite`/
                    // `FsComplete` events.
                    let returned = f.handle.submit_write(offset, buf)?;
                    write_done();
                    match returned {
                        Some(buf) => done(DiskOut::Buffer { request, buf }),
                        None => {
                            f.in_flight += 1;
                            run.total_in_flight += 1;
                        }
                    }
                    drain_file(f, &mut run.total_in_flight, false, request, done)?;
                    while run.total_in_flight > run.window {
                        // Steps are file-sequential per request, so the
                        // oldest submission belongs to the first file
                        // still in flight; block on its completion.
                        let idx = run
                            .files
                            .iter()
                            .position(|f| f.in_flight > 0)
                            .expect("in-flight count implies an in-flight file");
                        drain_file(
                            &mut run.files[idx],
                            &mut run.total_in_flight,
                            true,
                            request,
                            done,
                        )?;
                    }
                }
                *device = t_disk.elapsed();
                let f = &mut run.files[file];
                f.remaining -= 1;
                // Under the per-file policy, sync as soon as an array's
                // last subchunk is issued, overlapped with the rest of
                // the schedule. `sync` is a completion barrier, so the
                // drain below returns every outstanding buffer.
                if f.remaining == 0 && matches!(run.sync_policy, SyncPolicy::PerFile) {
                    let t_sync = recorder.enabled().then(Instant::now);
                    f.handle.sync()?;
                    record_sync(1, t_sync);
                    drain_file(f, &mut run.total_in_flight, false, request, done)?;
                }
            }
            DiskCmd::Read {
                request,
                file,
                key,
                offset,
                mut buf,
            } => {
                let Some(run) = runs.get_mut(&request) else {
                    return Ok(());
                };
                let t_disk = Instant::now();
                run.files[file].handle.read_at(offset, &mut buf)?;
                *device = t_disk.elapsed();
                if recorder.enabled() {
                    let bytes = buf.len() as u64;
                    recorder.record(
                        node,
                        &Event::DiskReadDone {
                            key,
                            offset,
                            bytes,
                            dur: *device,
                        },
                    );
                    recorder.record(node, &Event::DiskReadQueued { key, bytes });
                }
                done(DiskOut::Buffer { request, buf });
            }
            DiskCmd::Close { request } => {
                let Some(mut run) = runs.remove(&request) else {
                    return Ok(());
                };
                if matches!(run.sync_policy, SyncPolicy::PerCollective) {
                    // One coalesced barrier for the whole request: every
                    // fsync happens after every write has been issued,
                    // so no flush ever sits between two writes.
                    let t_sync = recorder.enabled().then(Instant::now);
                    for f in run.files.iter_mut() {
                        f.handle.sync()?;
                        drain_file(f, &mut run.total_in_flight, false, request, done)?;
                    }
                    record_sync(run.files.len() as u32, t_sync);
                } else {
                    // Per-file/per-write syncs already landed; collect
                    // any straggler completions before retiring.
                    for f in run.files.iter_mut() {
                        while f.in_flight > 0 {
                            drain_file(f, &mut run.total_in_flight, true, request, done)?;
                        }
                    }
                }
                done(DiskOut::Closed { request });
            }
        }
        Ok(())
    }
}

/// What the scheduler and the pinned disk task share.
struct DiskShared {
    stage: Mutex<DiskStage>,
    /// Commands sent to the task and not yet applied. The scheduler
    /// applies a command itself only while this is zero, which keeps
    /// every command in issue order.
    queued: AtomicUsize,
}

/// The pinned disk task: applies the commands handed to it, in arrival
/// order, until the command channel closes. Each command carries the
/// instant it was sent; one that found the task idle stamps its pickup
/// delay as the stage's hand-off latency. An `FsError` ends the task
/// with `queued` left nonzero, so the scheduler never touches the stage
/// again and surfaces the error through the join.
fn run_disk_task(
    shared: &DiskShared,
    cmds: mpsc::Receiver<(DiskCmd, Instant)>,
    out: mpsc::Sender<DiskOut>,
) -> Result<(), FsError> {
    let mut idle_since = Instant::now();
    for (cmd, sent) in cmds.iter() {
        let picked = Instant::now();
        let mut stage = shared
            .stage
            .lock()
            .expect("a disk-stage thread panicked mid-command");
        if sent >= idle_since {
            stage.handoff = picked - sent;
        }
        stage.apply(cmd, &mut |done| {
            let _ = out.send(done);
        })?;
        drop(stage);
        // Release pairs with the scheduler's Acquire in `submit`: a zero
        // count publishes the completions sent above.
        shared.queued.fetch_sub(1, Ordering::Release);
        idle_since = Instant::now();
    }
    Ok(())
}

/// The scheduler's end of the disk stage: one ordered stream of
/// completions, whichever thread applied the command.
struct DiskLink {
    shared: Arc<DiskShared>,
    tx: mpsc::Sender<(DiskCmd, Instant)>,
    /// Completions from the task.
    rx: mpsc::Receiver<DiskOut>,
    /// Completions taken ahead of the scheduler's next drain: whatever
    /// the task had sent before an inline command, then that command's
    /// own. Always older than anything still in `rx`.
    inbox: VecDeque<DiskOut>,
}

impl DiskLink {
    /// Hand one command to the pinned task. A closed channel means the
    /// task already died — the join in [`ServerNode::run`] has the
    /// cause.
    fn send(&mut self, cmd: DiskCmd) -> Result<(), PandaError> {
        // Relaxed suffices: the channel orders this increment before the
        // task's decrement, and only the scheduler reads the count.
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send((cmd, Instant::now()))
            .map_err(|_| PandaError::Protocol {
                detail: "disk task stopped early".to_string(),
            })
    }

    /// Issue a `Write` or `Read`: apply it on the scheduler when
    /// nothing is queued to the task and [`DiskStage::runs_inline`] says
    /// a hand-off would cost more than the command; otherwise hand it to
    /// the task.
    fn submit(&mut self, cmd: DiskCmd) -> Result<(), PandaError> {
        if self.shared.queued.load(Ordering::Acquire) == 0 {
            let mut stage = self
                .shared
                .stage
                .lock()
                .expect("a disk-stage thread panicked mid-command");
            if stage.runs_inline(&cmd) {
                // The task sends its completions before it counts a
                // command applied, so all of them are in `rx` by now and
                // move ahead of this command's: reads stay in order.
                self.inbox.extend(self.rx.try_iter());
                let inbox = &mut self.inbox;
                return Ok(stage.apply(cmd, &mut |done| inbox.push_back(done))?);
            }
        }
        self.send(cmd)
    }

    /// The oldest completion not yet taken, without blocking.
    fn next_done(&mut self) -> Option<DiskOut> {
        self.inbox.pop_front().or_else(|| self.rx.try_recv().ok())
    }
}

/// Land one fetched piece in its subchunk's buffer and record the
/// reorganization. Every write step funnels through here from the
/// engine's assembly jobs (pooled above the grain).
///
/// An identity step's piece is the whole subchunk in disk order, so a
/// uniquely owned payload of exactly `sub.bytes` bytes *becomes* the
/// buffer: no byte is copied, and `ReorgWorker` reports the piece with
/// a zero duration. Any other payload (a shared one, say) is copied.
fn assemble_piece(
    recorder: &dyn Recorder,
    node: u32,
    key: SubchunkKey,
    slot: &mut InFlight,
    step: &ScheduleStep,
    p: PendingPiece,
) -> Result<(), SchemaError> {
    let t_pack = recorder.enabled().then(Instant::now);
    let bytes = p.payload.len() as u64;
    let moved = match p.payload {
        Bytes::Owned(v) if slot.identity && v.len() == step.sub.bytes => {
            slot.buf = v;
            true
        }
        payload => {
            // A no-op for a sized buffer; an identity step whose
            // payload could not be moved allocates here.
            slot.buf.resize(step.sub.bytes, 0);
            copy::copy_region(
                &payload,
                &p.region,
                &mut slot.buf,
                &step.sub.region,
                &p.region,
                step.elem,
            )?;
            false
        }
    };
    if let Some(t) = t_pack {
        recorder.record(
            node,
            &Event::ReorgWorker {
                key,
                piece: p.piece as u32,
                bytes,
                dur: if moved { Duration::ZERO } else { t.elapsed() },
            },
        );
    }
    Ok(())
}

impl ServerNode {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        transport: Box<dyn Transport>,
        fs: Arc<dyn FileSystem>,
        server_idx: usize,
        num_clients: usize,
        num_servers: usize,
        io_workers: usize,
        max_concurrent: usize,
        max_queued: usize,
        recorder: Arc<dyn Recorder>,
        health: Arc<ServiceHealth>,
    ) -> Self {
        ServerNode {
            transport,
            fs,
            server_idx,
            num_clients,
            num_servers,
            max_concurrent: max_concurrent.max(1),
            max_queued,
            recorder,
            health,
            raw_handles: HashMap::new(),
            raw_done: vec![false; num_clients],
            raw_done_count: 0,
            pool: IoPool::new(io_workers),
        }
    }

    fn is_master(&self) -> bool {
        self.server_idx == 0
    }

    /// This server's fabric rank (servers follow the clients).
    fn my_rank(&self) -> u32 {
        (self.num_clients + self.server_idx) as u32
    }

    /// Whether instrumentation (and therefore clock reads) is on.
    fn obs_on(&self) -> bool {
        self.recorder.enabled()
    }

    /// Record one event under this server's rank, if recording is on.
    fn emit(&self, event: &Event<'_>) {
        if self.recorder.enabled() {
            self.recorder.record(self.my_rank(), event);
        }
    }

    fn master_server(&self) -> NodeId {
        NodeId(self.num_clients)
    }

    /// Publish this server's scheduler gauges (three relaxed stores —
    /// cheap enough to run on every serve-loop pass).
    fn publish_health(&self, st: &SchedState) {
        self.health.publish(
            self.server_idx,
            st.queue.len(),
            st.live.len(),
            st.disk_pending,
        );
    }

    /// A step's subchunk key under this server, scoped to its request.
    fn key_of(&self, request: u64, step: &ScheduleStep) -> SubchunkKey {
        SubchunkKey::scoped(request, self.server_idx, step.array, step.subchunk)
    }

    /// The server's per-array file name for an operation.
    pub fn file_name(file_tag: &str, server_idx: usize) -> String {
        format!("{file_tag}.s{server_idx}")
    }

    /// Main loop: schedule collective requests and serve baseline raw
    /// operations until shutdown. Spawns the pinned disk task, runs the
    /// scheduler, then joins the task — a disk error is the root cause
    /// when both sides failed.
    pub fn run(mut self) -> Result<(), PandaError> {
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (out_tx, out_rx) = mpsc::channel::<DiskOut>();
        let shared = Arc::new(DiskShared {
            stage: Mutex::new(DiskStage::new(
                Arc::clone(&self.recorder),
                self.my_rank(),
                Arc::clone(&self.fs),
            )),
            queued: AtomicUsize::new(0),
        });
        let task_shared = Arc::clone(&shared);
        let disk = self
            .pool
            .spawn_pinned(move || run_disk_task(&task_shared, cmd_rx, out_tx));
        let mut link = DiskLink {
            shared,
            tx: cmd_tx,
            rx: out_rx,
            inbox: VecDeque::new(),
        };
        let mut st = SchedState {
            live: Vec::new(),
            queue: VecDeque::new(),
            done: HashMap::new(),
            rr: 0,
            draining: false,
            disk_pending: 0,
        };
        let run = self.serve(&mut st, &mut link);
        // Closing the command channel lets the disk task drain and exit.
        drop(link);
        let disk = disk.join().map_err(|_| PandaError::Protocol {
            detail: "disk task panicked".to_string(),
        })?;
        match (run, disk) {
            (Ok(()), disk) => Ok(disk?),
            (Err(_), Err(disk)) => Err(disk.into()),
            (Err(run), Ok(())) => Err(run),
        }
    }

    /// The scheduler loop (see the module docs for its four phases).
    fn serve(&mut self, st: &mut SchedState, disk: &mut DiskLink) -> Result<(), PandaError> {
        loop {
            let mut progress = self.pump_all(st, disk)?;
            while let Some((src, msg)) = try_recv_msg(&mut *self.transport, MatchSpec::any())? {
                self.dispatch(st, disk, src, msg, Duration::ZERO)?;
                progress = true;
            }
            while let Some(done) = disk.next_done() {
                self.disk_done(st, disk, done)?;
                progress = true;
            }
            self.publish_health(st);
            if st.draining && st.live.is_empty() && st.queue.is_empty() {
                return Ok(());
            }
            if progress {
                continue;
            }
            if st.disk_pending > 0 {
                // Disk work outstanding: progress may come from either
                // side, so park briefly on the disk channel and re-poll
                // the transport.
                match disk.rx.recv_timeout(DISK_PARK) {
                    Ok(done) => self.disk_done(st, disk, done)?,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(PandaError::Protocol {
                            detail: "disk task stopped early".to_string(),
                        })
                    }
                }
            } else {
                // Everything outstanding is message-shaped: block on
                // the transport (whose own receive timeout still bounds
                // a dead peer). The measured wait is attributed to the
                // first fetched piece it delivers.
                let t_wait = self.obs_on().then(Instant::now);
                let (src, msg) = recv_msg(&mut *self.transport, MatchSpec::any())?;
                let wait = t_wait.map_or(Duration::ZERO, |t| t.elapsed());
                self.dispatch(st, disk, src, msg, wait)?;
            }
        }
    }

    /// Pump every live run once: highest priority first, equal
    /// priorities in rotating round-robin order so no request starves.
    fn pump_all(&mut self, st: &mut SchedState, disk: &mut DiskLink) -> Result<bool, PandaError> {
        if st.live.is_empty() {
            return Ok(false);
        }
        let n = st.live.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.rotate_left(st.rr % n);
        // Stable sort: the rotated round-robin order survives within
        // each priority class.
        order.sort_by(|&a, &b| st.live[b].priority.cmp(&st.live[a].priority));
        st.rr = st.rr.wrapping_add(1);
        let mut progress = false;
        for idx in order {
            let mut run = mem::replace(&mut st.live[idx], RequestRun::hollow());
            let moved = self.pump_run(&mut st.disk_pending, disk, &mut run);
            st.live[idx] = run;
            progress |= moved?;
        }
        Ok(progress)
    }

    fn pump_run(
        &mut self,
        disk_pending: &mut usize,
        disk: &mut DiskLink,
        run: &mut RequestRun,
    ) -> Result<bool, PandaError> {
        match run.dir {
            OpDir::Write => self.pump_write(disk_pending, disk, run),
            OpDir::Read => self.pump_read(disk_pending, disk, run),
        }
    }

    /// Advance one write-direction run as far as it will go without
    /// blocking: assemble arrived replies, issue completed head
    /// subchunks to the disk stage, and keep up to `depth` steps'
    /// fetches outstanding.
    fn pump_write(
        &mut self,
        disk_pending: &mut usize,
        disk: &mut DiskLink,
        run: &mut RequestRun,
    ) -> Result<bool, PandaError> {
        let mut progress = false;
        loop {
            let mut moved = false;
            // Assemble the arrived batch, window slots in parallel:
            // each job owns one slot's buffer (disjoint via
            // `iter_mut`); pieces within a slot stay serial. A batch
            // below the pool's grain is assembled right here.
            if !run.pending.is_empty() {
                moved = true;
                let bytes = run.pending.iter().map(|p| p.payload.len()).sum();
                let front = run.front;
                let mut per_slot: Vec<Vec<PendingPiece>> =
                    (0..run.window.len()).map(|_| Vec::new()).collect();
                for p in run.pending.drain(..) {
                    per_slot[p.step - front].push(p);
                }
                let steps = &run.sched.steps;
                let recorder = &self.recorder;
                let node = self.my_rank();
                let request = run.request;
                let server_idx = self.server_idx;
                let mut jobs: Vec<Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>> =
                    Vec::new();
                for (off, (slot, items)) in run.window.iter_mut().zip(per_slot).enumerate() {
                    if items.is_empty() {
                        continue;
                    }
                    let step = &steps[front + off];
                    slot.remaining -= items.len();
                    let key = SubchunkKey::scoped(request, server_idx, step.array, step.subchunk);
                    jobs.push(Box::new(move || {
                        for p in items {
                            assemble_piece(recorder.as_ref(), node, key, slot, step, p)?;
                        }
                        Ok(())
                    }));
                }
                self.pool.run_scoped_result(bytes, jobs)?;
            }
            // Issue completed head subchunks to the disk stage: the task
            // writes step k while replies for k+1.. assemble here (a
            // fast device writes it right here). The per-request bound
            // keeps one run from monopolizing the shared stage.
            while run.window.front().is_some_and(|s| s.remaining == 0)
                && run.disk_queued < run.depth
            {
                let done = run.window.pop_front().expect("checked front");
                let step = &run.sched.steps[run.front];
                let key = self.key_of(run.request, step);
                self.emit(&Event::DiskWriteQueued {
                    key,
                    bytes: done.buf.len() as u64,
                });
                let cmd = DiskCmd::Write {
                    request: run.request,
                    file: step.file,
                    key,
                    offset: step.sub.file_offset,
                    buf: done.buf,
                };
                *disk_pending += 1;
                run.disk_queued += 1;
                run.front += 1;
                disk.submit(cmd)?;
                moved = true;
            }
            if run.front == run.sched.steps.len() && !run.close_sent {
                disk.send(DiskCmd::Close {
                    request: run.request,
                })?;
                *disk_pending += 1;
                run.close_sent = true;
                moved = true;
            }
            // Keep up to `depth` steps' fetches outstanding.
            while run.next < run.sched.steps.len() && run.next - run.front < run.depth {
                let mut buf = if let Some(b) = run.free_bufs.pop() {
                    b
                } else if run.circulating < run.depth {
                    run.circulating += 1;
                    Vec::new()
                } else if run.depth == 1 {
                    // Depth 1 is the strictly serialized oracle: the
                    // next fetch waits for the disk write to land (the
                    // buffer comes back in a `DiskOut::Buffer`).
                    break;
                } else {
                    // Deeper windows keep fetching while the disk stage
                    // works; the per-request disk queue bound is the
                    // backpressure.
                    run.overflow += 1;
                    Vec::new()
                };
                debug_assert!(run.circulating <= run.depth);
                let step = &run.sched.steps[run.next];
                let identity = step.sub.is_identity();
                if identity {
                    // The piece's payload will be this step's buffer:
                    // drop the one it displaces, size nothing.
                    buf = Vec::new();
                } else {
                    // Assembly overwrites every byte (the pieces tile
                    // the subchunk), so a recycled buffer of the right
                    // length is not zeroed again.
                    buf.resize(step.sub.bytes, 0);
                }
                for (pi, piece) in step.sub.pieces.iter().enumerate() {
                    let dst = *run.participants.get(piece.client).ok_or_else(|| {
                        PandaError::Protocol {
                            detail: format!(
                                "plan piece for client {} outside the {} participants",
                                piece.client,
                                run.participants.len()
                            ),
                        }
                    })?;
                    send_msg(
                        &mut *self.transport,
                        NodeId(dst as usize),
                        &Msg::Fetch {
                            request: run.request,
                            array: step.array,
                            seq: run.seq,
                            region: piece.region.clone(),
                        },
                    )?;
                    self.emit(&Event::FetchSent {
                        key: self.key_of(run.request, step),
                        piece: pi as u32,
                        client: dst,
                    });
                    run.seq_map.insert(run.seq, (run.next, pi));
                    run.seq += 1;
                }
                run.window.push_back(InFlight {
                    buf,
                    remaining: step.sub.pieces.len(),
                    identity,
                });
                run.next += 1;
                moved = true;
            }
            if !moved {
                return Ok(progress);
            }
            progress = true;
        }
    }

    /// Advance one read-direction run: scatter prefetched buffers in
    /// schedule order and keep up to `depth` disk reads ahead of the
    /// scatter point.
    fn pump_read(
        &mut self,
        disk_pending: &mut usize,
        disk: &mut DiskLink,
        run: &mut RequestRun,
    ) -> Result<bool, PandaError> {
        let mut progress = false;
        loop {
            let mut moved = false;
            // Prefetched buffers arrive in schedule order (the disk
            // task is per-request FIFO), so the front one always
            // belongs to the next scatter step.
            while let Some(buf) = run.ready_bufs.pop_front() {
                let step = &run.sched.steps[run.next_scatter];
                let node = self.my_rank();
                Self::scatter_step(
                    &mut *self.transport,
                    &self.pool,
                    &self.recorder,
                    node,
                    self.server_idx,
                    run.request,
                    &run.participants,
                    step,
                    &buf,
                    &mut run.seq,
                )?;
                run.next_scatter += 1;
                run.free_bufs.push(buf);
                moved = true;
            }
            // Keep up to `depth` buffers circulating (counting ready
            // ones not yet scattered): depth 1 = no read-ahead, the
            // strictly serialized schedule.
            while run.reads_issued < run.sched.steps.len()
                && run.reads_issued - run.next_scatter < run.depth
            {
                let mut buf = if let Some(b) = run.free_bufs.pop() {
                    b
                } else if run.circulating < run.depth {
                    run.circulating += 1;
                    Vec::new()
                } else {
                    break;
                };
                debug_assert!(run.circulating <= run.depth);
                let step = &run.sched.steps[run.reads_issued];
                // Sized here rather than in the disk stage, so every
                // buffer is allocated on the scheduler whichever thread
                // fills it. `read_at` overwrites every byte, so a
                // recycled buffer of the right length is not zeroed
                // again.
                buf.resize(step.sub.bytes, 0);
                let cmd = DiskCmd::Read {
                    request: run.request,
                    file: step.file,
                    key: self.key_of(run.request, step),
                    offset: step.sub.file_offset,
                    buf,
                };
                *disk_pending += 1;
                run.reads_issued += 1;
                disk.submit(cmd)?;
                moved = true;
            }
            if run.next_scatter == run.sched.steps.len() && !run.close_sent {
                disk.send(DiskCmd::Close {
                    request: run.request,
                })?;
                *disk_pending += 1;
                run.close_sent = true;
                moved = true;
            }
            if !moved {
                return Ok(progress);
            }
            progress = true;
        }
    }

    /// Reorganize and push one read step: pack its pieces, in parallel
    /// on the worker pool when the subchunk is above the grain (large
    /// pieces additionally split along their outermost dimension inside
    /// [`IoPool::pack_region_par`]), trimming each to the requested
    /// section, then send them in piece order so the per-client message
    /// stream matches the serial schedule.
    #[allow(clippy::too_many_arguments)]
    fn scatter_step(
        transport: &mut dyn Transport,
        pool: &IoPool,
        recorder: &Arc<dyn Recorder>,
        node: u32,
        server_idx: usize,
        request: u64,
        participants: &[u32],
        step: &ScheduleStep,
        buf: &[u8],
        seq: &mut u64,
    ) -> Result<(), PandaError> {
        let key = SubchunkKey::scoped(request, server_idx, step.array, step.subchunk);
        let targets: Vec<(usize, Region)> = step
            .sub
            .pieces
            .iter()
            .enumerate()
            .filter_map(|(pi, piece)| {
                let target = match &step.section {
                    None => Some(piece.region.clone()),
                    Some(section) => piece.region.intersect(section),
                };
                target.map(|t| (pi, t))
            })
            .collect();
        if targets.is_empty() {
            return Ok(());
        }
        let mut packed: Vec<Vec<u8>> = vec![Vec::new(); targets.len()];
        {
            let jobs: Vec<Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>> = packed
                .iter_mut()
                .zip(&targets)
                .map(|(out, (pi, target))| {
                    Box::new(move || {
                        let t_pack = recorder.enabled().then(Instant::now);
                        pool.pack_region_par(out, buf, &step.sub.region, target, step.elem)?;
                        if let Some(t) = t_pack {
                            recorder.record(
                                node,
                                &Event::ReorgWorker {
                                    key,
                                    piece: *pi as u32,
                                    bytes: out.len() as u64,
                                    dur: t.elapsed(),
                                },
                            );
                        }
                        Ok(())
                    })
                        as Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>
                })
                .collect();
            pool.run_scoped_result(step.sub.bytes, jobs)?;
        }
        for ((pi, target), data) in targets.into_iter().zip(packed) {
            let piece_client = step.sub.pieces[pi].client;
            let dst = *participants
                .get(piece_client)
                .ok_or_else(|| PandaError::Protocol {
                    detail: format!(
                        "plan piece for client {piece_client} outside the {} participants",
                        participants.len()
                    ),
                })?;
            let bytes = data.len() as u64;
            send_data(
                transport,
                NodeId(dst as usize),
                request,
                key.array,
                *seq,
                &target,
                data,
            )?;
            if recorder.enabled() {
                recorder.record(
                    node,
                    &Event::PushSent {
                        key,
                        piece: pi as u32,
                        client: dst,
                        bytes,
                    },
                );
            }
            *seq += 1;
        }
        Ok(())
    }

    /// Route one transport message. `wait` is the time the scheduler
    /// spent blocked for it (zero when it was drained non-blocking).
    fn dispatch(
        &mut self,
        st: &mut SchedState,
        disk: &mut DiskLink,
        src: NodeId,
        msg: Msg,
        wait: Duration,
    ) -> Result<(), PandaError> {
        match msg {
            Msg::Shutdown => {
                st.draining = true;
                Ok(())
            }
            Msg::Collective(req) => self.admit(st, disk, req),
            Msg::Data {
                request,
                seq,
                region,
                payload,
                ..
            } => self.route_data(st, request, seq, region, payload, wait),
            Msg::ServerDone { request } => {
                if !self.is_master() {
                    return Err(PandaError::Protocol {
                        detail: "ServerDone at a non-master server".to_string(),
                    });
                }
                self.note_done(st, request)
            }
            Msg::RawWrite {
                file,
                offset,
                payload,
            } => self.raw_write(&file, offset, &payload),
            Msg::RawRead {
                file,
                offset,
                len,
                seq,
            } => self.raw_read(src, &file, offset, len as usize, seq),
            Msg::RawDone => self.raw_done(src),
            Msg::RawStat { file, seq } => {
                let len = if self.fs.exists(&file) {
                    self.fs.open(&file)?.len()
                } else {
                    u64::MAX
                };
                send_msg(&mut *self.transport, src, &Msg::RawStatReply { seq, len })?;
                Ok(())
            }
            other => Err(PandaError::Protocol {
                detail: format!("server got unexpected tag {}", other.tag()),
            }),
        }
    }

    /// Admission control. The master decides; peers start whatever the
    /// master relayed. A multi-participant request is never rejected —
    /// its non-submitting participants are already blocked inside the
    /// collective with no abort path, so it queues however full the
    /// queue is. Single-participant (session) requests get the typed
    /// rejection instead of unbounded queueing.
    fn admit(
        &mut self,
        st: &mut SchedState,
        disk: &mut DiskLink,
        req: CollectiveRequest,
    ) -> Result<(), PandaError> {
        if !self.is_master() {
            return self.start_run(st, disk, req);
        }
        if st.live.len() < self.max_concurrent {
            self.relay(&req)?;
            return self.start_run(st, disk, req);
        }
        if req.participants.len() > 1 || st.queue.len() < self.max_queued {
            st.queue.push_back(req);
            self.publish_health(st);
            return Ok(());
        }
        let reason = if self.max_queued == 0 {
            AdmissionIssue::Saturated {
                live: st.live.len(),
                max: self.max_concurrent,
            }
        } else {
            AdmissionIssue::QueueFull {
                queued: st.queue.len(),
                max: self.max_queued,
            }
        };
        self.emit(&Event::AdmissionReject {
            request: req.request,
            queued: st.queue.len() as u32,
            live: st.live.len() as u32,
        });
        self.health.note_reject(self.server_idx);
        let submitter = NodeId(req.participants.first().map_or(0, |&r| r as usize));
        send_msg(
            &mut *self.transport,
            submitter,
            &Msg::Reject {
                request: req.request,
                reason,
            },
        )
    }

    /// Relay an admitted request to the peer servers (master only).
    fn relay(&mut self, req: &CollectiveRequest) -> Result<(), PandaError> {
        for s in 1..self.num_servers {
            let dst = NodeId(self.num_clients + s);
            send_msg(&mut *self.transport, dst, &Msg::Collective(req.clone()))?;
        }
        Ok(())
    }

    /// Lower an admitted request into a live [`RequestRun`]: build its
    /// schedule, open its files on the disk stage, and enter it into the
    /// scheduler.
    fn start_run(
        &mut self,
        st: &mut SchedState,
        disk: &mut DiskLink,
        req: CollectiveRequest,
    ) -> Result<(), PandaError> {
        let depth = req.pipeline_depth.max(1);
        let t_op = self.obs_on().then(Instant::now);
        self.emit(&Event::RequestIssued {
            request: req.request,
            op: op_dir(req.op),
            arrays: req.arrays.len() as u32,
            pipeline_depth: depth as u32,
        });
        if matches!(req.op, OpKind::Write) && req.arrays.iter().any(|a| a.section.is_some()) {
            return Err(PandaError::Protocol {
                detail: "section writes are not supported".to_string(),
            });
        }
        let sched = CollectiveSchedule::build(
            &req.arrays,
            req.op,
            self.server_idx,
            self.num_servers,
            req.subchunk_bytes,
            req.sync_policy,
        );
        if self.obs_on() {
            for step in &sched.steps {
                self.emit(&Event::SubchunkPlanned {
                    key: self.key_of(req.request, step),
                    bytes: step.sub.bytes as u64,
                });
            }
        }
        if self.is_master() {
            st.done.insert(
                req.request,
                DoneTrack {
                    count: 0,
                    submitter: req.participants.first().copied().unwrap_or(0),
                },
            );
        }
        disk.send(DiskCmd::Open {
            request: req.request,
            write: matches!(req.op, OpKind::Write),
            sync_policy: sched.sync_policy,
            window: depth - 1,
            files: sched
                .files
                .iter()
                .map(|f| OpenSpec {
                    name: Self::file_name(&f.tag, self.server_idx),
                    steps: f.steps,
                    bytes: f.bytes,
                })
                .collect(),
            empty_files: sched
                .empty_files
                .iter()
                .map(|t| Self::file_name(t, self.server_idx))
                .collect(),
        })?;
        let mut run = RequestRun {
            request: req.request,
            priority: req.priority,
            participants: req.participants,
            dir: op_dir(req.op),
            depth,
            sched,
            t_op,
            ..RequestRun::hollow()
        };
        if run.sched.is_empty() {
            // Nothing to transfer: retire the request's (empty) disk
            // state straight away.
            disk.send(DiskCmd::Close {
                request: run.request,
            })?;
            st.disk_pending += 1;
            run.close_sent = true;
        }
        st.live.push(run);
        Ok(())
    }

    /// Route an arriving `Data` reply to its run and step; assembly
    /// happens on the next pump in one parallel pass per burst.
    fn route_data(
        &mut self,
        st: &mut SchedState,
        request: u64,
        seq: u64,
        region: Region,
        payload: Bytes,
        wait: Duration,
    ) -> Result<(), PandaError> {
        let Some(run) = st.live.iter_mut().find(|r| r.request == request) else {
            return Err(PandaError::Protocol {
                detail: format!("data for unknown request {request}"),
            });
        };
        let (si, pi) = run
            .seq_map
            .remove(&seq)
            .ok_or_else(|| PandaError::Protocol {
                detail: format!("unexpected data seq {seq} for request {request}"),
            })?;
        let step = &run.sched.steps[si];
        debug_assert_eq!(region, step.sub.pieces[pi].region);
        if self.recorder.enabled() {
            self.recorder.record(
                self.my_rank(),
                &Event::FetchReplied {
                    key: SubchunkKey::scoped(request, self.server_idx, step.array, step.subchunk),
                    bytes: payload.len() as u64,
                    // Only the blocking receive actually waited.
                    wait,
                },
            );
        }
        run.pending.push(PendingPiece {
            step: si,
            piece: pi,
            region,
            payload,
        });
        Ok(())
    }

    /// Process one disk completion.
    fn disk_done(
        &mut self,
        st: &mut SchedState,
        disk: &mut DiskLink,
        done: DiskOut,
    ) -> Result<(), PandaError> {
        st.disk_pending -= 1;
        match done {
            DiskOut::Buffer { request, buf } => {
                if let Some(run) = st.live.iter_mut().find(|r| r.request == request) {
                    match run.dir {
                        OpDir::Write => {
                            run.disk_queued -= 1;
                            if run.overflow > 0 {
                                run.overflow -= 1;
                            } else {
                                run.free_bufs.push(buf);
                                debug_assert!(run.free_bufs.len() <= run.circulating);
                            }
                        }
                        OpDir::Read => run.ready_bufs.push_back(buf),
                    }
                }
                Ok(())
            }
            DiskOut::Closed { request } => self.finish_run(st, disk, request),
        }
    }

    /// A run's disk state is retired: the collective is complete on
    /// this server. Take part in the completion chain, then (master)
    /// pull the next queued request into the freed slot.
    fn finish_run(
        &mut self,
        st: &mut SchedState,
        disk: &mut DiskLink,
        request: u64,
    ) -> Result<(), PandaError> {
        let idx = st
            .live
            .iter()
            .position(|r| r.request == request)
            .ok_or_else(|| PandaError::Protocol {
                detail: format!("disk close for unknown request {request}"),
            })?;
        let run = st.live.swap_remove(idx);
        if let Some(t) = run.t_op {
            self.emit(&Event::CollectiveDone {
                request,
                op: run.dir,
                dur: t.elapsed(),
            });
        }
        if self.is_master() {
            self.note_done(st, request)?;
            // A live slot freed up: admit from the wait queue.
            while st.live.len() < self.max_concurrent {
                let Some(req) = st.queue.pop_front() else {
                    break;
                };
                self.relay(&req)?;
                self.start_run(st, disk, req)?;
            }
        } else {
            let dst = self.master_server();
            send_msg(&mut *self.transport, dst, &Msg::ServerDone { request })?;
        }
        Ok(())
    }

    /// Master bookkeeping: one more server finished `request`. Once all
    /// have (including this one), tell the submitter.
    fn note_done(&mut self, st: &mut SchedState, request: u64) -> Result<(), PandaError> {
        let track = st
            .done
            .get_mut(&request)
            .ok_or_else(|| PandaError::Protocol {
                detail: format!("completion for unknown request {request}"),
            })?;
        track.count += 1;
        if track.count == self.num_servers {
            let submitter = NodeId(track.submitter as usize);
            st.done.remove(&request);
            send_msg(&mut *self.transport, submitter, &Msg::Complete { request })?;
        }
        Ok(())
    }

    /// Baseline support: apply a positioned write in arrival order.
    fn raw_write(&mut self, file: &str, offset: u64, payload: &[u8]) -> Result<(), PandaError> {
        let handle = self.raw_handle(file)?;
        handle.write_at(offset, payload)?;
        Ok(())
    }

    /// Baseline support: serve a positioned read.
    fn raw_read(
        &mut self,
        src: NodeId,
        file: &str,
        offset: u64,
        len: usize,
        seq: u64,
    ) -> Result<(), PandaError> {
        let handle = self.raw_handle(file)?;
        // `len` comes off the wire: bound it by the file before sizing
        // a buffer from it.
        let file_len = handle.len();
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > file_len)
        {
            return Err(FsError::ReadPastEnd {
                offset,
                len,
                file_len,
            }
            .into());
        }
        let mut payload = vec![0u8; len];
        handle.read_at(offset, &mut payload)?;
        send_msg(&mut *self.transport, src, &Msg::RawData { seq, payload })?;
        Ok(())
    }

    fn raw_handle(&mut self, file: &str) -> Result<&mut Box<dyn FileHandle>, PandaError> {
        match self.raw_handles.entry(file.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let handle = if self.fs.exists(file) {
                    self.fs.open(file)?
                } else {
                    self.fs.create(file)?
                };
                Ok(e.insert(handle))
            }
        }
    }

    /// Baseline support: completion barrier. Once every client has sent
    /// `RawDone`, sync all touched files and acknowledge everyone. The
    /// seen set is a fixed bitmap over client ranks, so the duplicate
    /// check is O(1) regardless of client count.
    fn raw_done(&mut self, src: NodeId) -> Result<(), PandaError> {
        match self.raw_done.get_mut(src.0) {
            Some(seen) if !*seen => *seen = true,
            _ => {
                return Err(PandaError::Protocol {
                    detail: format!("duplicate or non-client RawDone from {src}"),
                })
            }
        }
        self.raw_done_count += 1;
        if self.raw_done_count == self.num_clients {
            for handle in self.raw_handles.values_mut() {
                handle.sync()?;
            }
            // Drop the handle cache: the logical op is over, and fresh
            // handles restart sequentiality tracking for the next op.
            self.raw_handles.clear();
            self.raw_done_count = 0;
            for client in 0..self.num_clients {
                debug_assert!(self.raw_done[client], "barrier complete");
                self.raw_done[client] = false;
                send_msg(&mut *self.transport, NodeId(client), &Msg::RawAck)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_fs::MemFs;
    use panda_msg::InProcFabric;

    #[test]
    fn raw_read_bounds_the_wire_length_before_allocating() {
        let (mut endpoints, _) = InProcFabric::new(2);
        let server_end = endpoints.pop().expect("two endpoints");
        let mut client = endpoints.pop().expect("two endpoints");
        let fs = Arc::new(MemFs::new());
        fs.create("f.dat").unwrap().write_at(0, b"abcd").unwrap();
        let node = ServerNode::new(
            Box::new(server_end),
            fs,
            0,
            1,
            1,
            1,
            1,
            0,
            panda_obs::null_recorder(),
            Arc::new(ServiceHealth::new(1, 1, 0)),
        );
        let server = std::thread::spawn(move || node.run());
        // A garbage length: sizing a buffer from it first would ask the
        // allocator for a terabyte.
        send_msg(
            &mut client,
            NodeId(1),
            &Msg::RawRead {
                file: "f.dat".to_string(),
                offset: 2,
                len: 1 << 40,
                seq: 0,
            },
        )
        .unwrap();
        let err = server.join().expect("server thread").unwrap_err();
        assert!(
            matches!(
                err,
                PandaError::Fs(FsError::ReadPastEnd {
                    offset: 2,
                    len,
                    file_len: 4,
                }) if len == 1 << 40
            ),
            "{err:?}"
        );
    }
}
