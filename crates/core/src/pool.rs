//! A small shared worker pool for server-side I/O and reorganization.
//!
//! The pipelined schedules in [`crate::server`] need two kinds of help:
//! long-lived disk loops (one writer or prefetcher per collective) and
//! short fork-join bursts of `copy_region`/`pack_region_into` work when
//! several subchunks are ready to be reorganized at once. Spawning a
//! fresh OS thread per subchunk would swamp the actual copy cost, so a
//! [`ServerNode`](crate::server::ServerNode) owns one [`IoPool`] sized
//! from [`PandaConfig::io_workers`](crate::PandaConfig::io_workers) and
//! routes both kinds of work through it.
//!
//! A hand-off is not free: the scheduler queues the job, wakes a worker
//! and blocks on a latch until it reports back, which on a small
//! machine costs tens of microseconds — more than a 16 KiB copy. So a
//! burst smaller than `GRAIN_BYTES` (128 KiB in total) runs whole on
//! the caller, and only bursts above the grain are spread over the
//! workers.
//!
//! Two properties keep the pool deadlock-free:
//!
//! * work is only queued against a *reservation* of an idle worker
//!   ([`IoPool::spawn_pinned`] falls back to a plain OS thread and
//!   [`IoPool::run_scoped`] to inline execution on the caller when no
//!   worker is free), so a queued job can never wait behind a disk loop
//!   that will not finish until that very job runs;
//! * [`IoPool::run_scoped`] never returns before every dispatched job
//!   has finished — including when a job panics — which is what makes
//!   lending non-`'static` borrows to the workers sound.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use panda_schema::{copy, Region, SchemaError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The I/O node's one hand-off grain: work of fewer bytes runs on the
/// thread that has it, because waking another thread (two mutex hops
/// and a futex wake per job) costs more than the copy or device call.
/// Bursts below it stay inline in [`IoPool::run_scoped`], packs below it
/// stay serial in [`IoPool::pack_region_par`], and the server's disk
/// stage applies fast commands below it on the scheduler.
pub(crate) const GRAIN_BYTES: usize = 128 * 1024;

struct State {
    jobs: VecDeque<Job>,
    /// Workers neither running a job nor holding one in the queue. Every
    /// enqueue consumes one unit ("reservation") before pushing, so
    /// `jobs.len() + running == workers - idle` is an invariant.
    idle: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
}

/// The shared worker pool. See the module docs for the dispatch rules.
pub struct IoPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl IoPool {
    /// A pool with `workers` threads (clamped to at least one), named
    /// `panda-io-N`.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                idle: workers,
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("panda-io-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn io pool worker")
            })
            .collect();
        IoPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Claim one idle worker, if any. A successful reservation must be
    /// followed by exactly one `dispatch`.
    fn try_reserve(&self) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        if st.idle > 0 {
            st.idle -= 1;
            true
        } else {
            false
        }
    }

    /// Queue a job against a reservation made by `try_reserve`.
    fn dispatch(&self, job: Job) {
        let mut st = self.shared.state.lock().unwrap();
        st.jobs.push_back(job);
        drop(st);
        self.shared.available.notify_one();
    }

    /// Run a long-lived task — typically a disk loop that lives for one
    /// collective — on a reserved worker, or on a fresh OS thread when
    /// every worker is busy. Either way the task starts immediately;
    /// it never queues behind other work, so two concurrent disk loops
    /// on a one-worker pool cannot deadlock each other.
    pub fn spawn_pinned<T, F>(&self, f: F) -> PinnedTask<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.try_reserve() {
            let (tx, rx) = mpsc::channel();
            self.dispatch(Box::new(move || {
                let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
            }));
            PinnedTask(PinnedInner::Pooled(rx))
        } else {
            let handle = thread::Builder::new()
                .name("panda-io-overflow".to_string())
                .spawn(f)
                .expect("spawn overflow io thread");
            PinnedTask(PinnedInner::Thread(handle))
        }
    }

    /// Fork-join: run every job, spreading them over currently idle
    /// workers and executing the rest inline on the caller, and return
    /// only when all of them have finished. `bytes` is the burst's total
    /// payload: below `GRAIN_BYTES` no worker is woken and the whole
    /// burst runs on the caller. If any job panicked the first panic is
    /// re-raised here — after the barrier, so borrowed data never
    /// outlives a still-running worker.
    pub fn run_scoped<'scope>(&self, bytes: usize, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Arc::new((Mutex::new(0usize), Condvar::new()));
        let first_panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
            Arc::new(Mutex::new(None));
        let mut inline = Vec::new();
        for job in jobs {
            if bytes < GRAIN_BYTES || !self.try_reserve() {
                inline.push(job);
                continue;
            }
            // SAFETY: the transmute only erases the `'scope` bound on
            // the closure's captures. The job is observed through the
            // latch: it increments before dispatch, decrements as its
            // last action, and this function blocks below until the
            // count returns to zero — so every borrow the closure holds
            // is live for as long as the worker can touch it.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            *latch.0.lock().unwrap() += 1;
            let latch = Arc::clone(&latch);
            let first_panic = Arc::clone(&first_panic);
            self.dispatch(Box::new(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(job)) {
                    first_panic.lock().unwrap().get_or_insert(p);
                }
                let mut n = latch.0.lock().unwrap();
                *n -= 1;
                if *n == 0 {
                    latch.1.notify_all();
                }
            }));
        }
        for job in inline {
            if let Err(p) = catch_unwind(AssertUnwindSafe(job)) {
                first_panic.lock().unwrap().get_or_insert(p);
            }
        }
        let mut n = latch.0.lock().unwrap();
        while *n > 0 {
            n = latch.1.wait(n).unwrap();
        }
        drop(n);
        let panic = first_panic.lock().unwrap().take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// [`IoPool::run_scoped`] for fallible jobs: runs every job to
    /// completion (the barrier still holds) and returns the first error
    /// any of them reported. The collective executor's reorganization
    /// stages all funnel their copy bursts through here.
    pub fn run_scoped_result<'scope, E: Send + 'scope>(
        &self,
        bytes: usize,
        jobs: Vec<Box<dyn FnOnce() -> Result<(), E> + Send + 'scope>>,
    ) -> Result<(), E> {
        let error: Mutex<Option<E>> = Mutex::new(None);
        let wrapped: Vec<Box<dyn FnOnce() + Send + '_>> = jobs
            .into_iter()
            .map(|job| {
                let error = &error;
                Box::new(move || {
                    if let Err(e) = job() {
                        error.lock().unwrap().get_or_insert(e);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_scoped(bytes, wrapped);
        match error.into_inner().unwrap() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// [`copy::pack_region_into`] with the copy split over the pool:
    /// `sub` is cut into bands along its outermost dimension and each
    /// band packs into its own disjoint slice of `out`. Splitting along
    /// dim 0 is what makes the slices contiguous — the packed layout is
    /// row-major over `sub`, so all bytes of rows `a..b` precede those
    /// of rows `b..`. Small packs (or rank-0 regions) take the serial
    /// path unchanged.
    pub fn pack_region_par(
        &self,
        out: &mut Vec<u8>,
        src: &[u8],
        src_region: &Region,
        sub: &Region,
        elem_size: usize,
    ) -> Result<(), SchemaError> {
        let total = sub.num_bytes(elem_size);
        let rows = if sub.rank() == 0 { 1 } else { sub.extent(0) };
        let bands = self.workers().min(rows);
        if total < GRAIN_BYTES || bands < 2 {
            return copy::pack_region_into(out, src, src_region, sub, elem_size);
        }
        out.clear();
        out.resize(total, 0);
        let row_bytes = total / rows;
        let mut jobs: Vec<Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>> =
            Vec::with_capacity(bands);
        let mut rest: &mut [u8] = out;
        let lo0 = sub.lo()[0];
        for b in 0..bands {
            // Rows are dealt out as evenly as possible: the first
            // `rows % bands` bands take one extra row.
            let begin = lo0 + b * rows / bands;
            let end = lo0 + (b + 1) * rows / bands;
            let (slab, tail) = rest.split_at_mut((end - begin) * row_bytes);
            rest = tail;
            let mut lo = sub.lo().to_vec();
            let mut hi = sub.hi().to_vec();
            lo[0] = begin;
            hi[0] = end;
            let band = Region::new(&lo, &hi).expect("band of a valid region is valid");
            jobs.push(Box::new(move || {
                copy::copy_region(src, src_region, slab, &band, &band, elem_size).map(|_| ())
            }));
        }
        self.run_scoped_result(total, jobs)
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for IoPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.available.wait(st).unwrap();
            }
        };
        job();
        shared.state.lock().unwrap().idle += 1;
    }
}

enum PinnedInner<T> {
    Pooled(mpsc::Receiver<thread::Result<T>>),
    Thread(thread::JoinHandle<T>),
}

/// Handle to a task started with [`IoPool::spawn_pinned`]. Mirrors
/// [`std::thread::JoinHandle`]: joining yields `Err` with the panic
/// payload if the task panicked.
pub struct PinnedTask<T>(PinnedInner<T>);

impl<T> PinnedTask<T> {
    /// Block until the task finishes and return its result.
    pub fn join(self) -> thread::Result<T> {
        match self.0 {
            PinnedInner::Pooled(rx) => rx
                .recv()
                .unwrap_or_else(|_| Err(Box::new("io pool worker lost"))),
            PinnedInner::Thread(handle) => handle.join(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_scoped_runs_every_job_and_waits() {
        let pool = IoPool::new(3);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..20)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(GRAIN_BYTES, jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn run_scoped_falls_back_inline_when_workers_are_busy() {
        let pool = IoPool::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // Occupy the only worker so the scoped jobs must run inline.
        let pinned = pool.spawn_pinned(move || {
            gate_rx.recv().unwrap();
            7usize
        });
        let me = thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let ran_on = &ran_on;
                Box::new(move || {
                    ran_on.lock().unwrap().push(thread::current().id());
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(GRAIN_BYTES, jobs);
        let ids = ran_on.lock().unwrap();
        assert_eq!(ids.len(), 4);
        assert!(ids.iter().all(|&id| id == me), "expected inline fallback");
        drop(ids);
        gate_tx.send(()).unwrap();
        assert_eq!(pinned.join().unwrap(), 7);
    }

    #[test]
    fn bursts_below_the_grain_never_leave_the_caller() {
        let pool = IoPool::new(2);
        let me = thread::current().id();
        let run = |bytes: usize| {
            let ran_on = Mutex::new(Vec::new());
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let ran_on = &ran_on;
                    Box::new(move || {
                        ran_on.lock().unwrap().push(thread::current().id());
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(bytes, jobs);
            ran_on.into_inner().unwrap()
        };
        // Both workers are idle, yet a sub-grain burst wakes neither.
        let small = run(GRAIN_BYTES - 1);
        assert_eq!(small.len(), 4);
        assert!(
            small.iter().all(|&id| id == me),
            "sub-grain job left the caller"
        );
        // At the grain the same burst is spread: the first job is queued
        // against an idle worker's reservation, so it cannot run here.
        let big = run(GRAIN_BYTES);
        assert_eq!(big.len(), 4);
        assert!(big.iter().any(|&id| id != me), "no job reached a worker");
    }

    #[test]
    fn spawn_pinned_overflows_to_a_fresh_thread() {
        let pool = IoPool::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let first = pool.spawn_pinned(move || gate_rx.recv().unwrap());
        // The worker is taken; this must start anyway (fallback thread),
        // and it is the one that releases the first task — a queued-
        // behind-the-loop dispatch would deadlock right here.
        let second = pool.spawn_pinned(move || gate_tx.send(()).unwrap());
        second.join().unwrap();
        first.join().unwrap();
    }

    #[test]
    fn run_scoped_propagates_panics_after_the_barrier() {
        let pool = IoPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|i| {
                    let finished = &finished;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(GRAIN_BYTES, jobs);
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn run_scoped_result_reports_the_first_error_after_all_jobs() {
        let pool = IoPool::new(2);
        let finished = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> Result<(), i32> + Send + '_>> = (0..6)
            .map(|i| {
                let finished = &finished;
                Box::new(move || {
                    finished.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        Err(3)
                    } else {
                        Ok(())
                    }
                }) as Box<dyn FnOnce() -> Result<(), i32> + Send + '_>
            })
            .collect();
        assert_eq!(pool.run_scoped_result(GRAIN_BYTES, jobs), Err(3));
        // The barrier holds for fallible jobs too: an error does not
        // cancel the rest of the burst.
        assert_eq!(finished.load(Ordering::SeqCst), 6);
        let ok: Vec<Box<dyn FnOnce() -> Result<(), i32> + Send + '_>> = (0..2)
            .map(|_| Box::new(|| Ok(())) as Box<dyn FnOnce() -> Result<(), i32> + Send + '_>)
            .collect();
        assert_eq!(pool.run_scoped_result(GRAIN_BYTES, ok), Ok(()));
    }

    #[test]
    fn pack_region_par_matches_serial_pack() {
        let pool = IoPool::new(4);
        let elem = 8usize;
        let enclosing = Region::new(&[0, 0], &[200, 120]).unwrap();
        let mut src = vec![0u8; enclosing.num_bytes(elem)];
        for (i, b) in src.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        // Big enough to split (> GRAIN_BYTES) and deliberately
        // not row-aligned with the band count.
        let sub = Region::new(&[3, 5], &[197, 117]).unwrap();
        let expect = copy::pack_region(&src, &enclosing, &sub, elem).unwrap();
        assert!(expect.len() >= GRAIN_BYTES);
        let mut got = Vec::new();
        pool.pack_region_par(&mut got, &src, &enclosing, &sub, elem)
            .unwrap();
        assert_eq!(got, expect);

        // Small packs take the serial path but must agree too.
        let tiny = Region::new(&[0, 0], &[2, 3]).unwrap();
        let expect = copy::pack_region(&src, &enclosing, &tiny, elem).unwrap();
        pool.pack_region_par(&mut got, &src, &enclosing, &tiny, elem)
            .unwrap();
        assert_eq!(got, expect);
    }
}
