//! The pipelined transfer engine: any depth must produce exactly the
//! files and buffers of the unpipelined schedule — pipelining changes
//! *when* work overlaps, never *what* is written — and failures must
//! stay typed errors, not hangs.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::*;
use panda_core::{ArrayMeta, PandaConfig, PandaError, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileHandle, FileSystem, FsError, IoStats, MemFs};
use panda_schema::{Dist, ElementType, Region};

/// Write the pattern at `depth`, returning each server's file plus the
/// buffers of a same-depth read-back.
fn roundtrip_at_depth(
    meta: &ArrayMeta,
    num_clients: usize,
    num_servers: usize,
    subchunk: usize,
    depth: usize,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mems: Vec<Arc<MemFs>> = (0..num_servers).map(|_| Arc::new(MemFs::new())).collect();
    let (system, mut clients) = launch_mem_over(&mems, num_clients, subchunk, depth);
    collective_write(&mut clients, meta, "t");
    let files: Vec<Vec<u8>> = (0..num_servers)
        .map(|s| mems[s].contents(&format!("t.s{s}")).unwrap_or_default())
        .collect();
    let bufs = collective_read(&mut clients, meta, "t");
    system.shutdown(clients).unwrap();
    (files, bufs)
}

#[test]
fn all_depths_write_byte_identical_files_memfs() {
    // Geometries covering natural chunking, reorganization, and uneven
    // division; small subchunk caps force many subchunks per chunk so
    // the window actually pipelines.
    let cases: Vec<(ArrayMeta, usize, usize, usize)> = vec![
        (
            make_array(
                "t",
                &[16, 16],
                ElementType::F64,
                &[2, 2],
                DiskSchema::Natural,
            ),
            4,
            2,
            256,
        ),
        (
            make_array(
                "t",
                &[16, 16],
                ElementType::F64,
                &[2, 2],
                DiskSchema::Traditional(2),
            ),
            4,
            2,
            256,
        ),
        (
            make_array(
                "t",
                &[12, 10],
                ElementType::F32,
                &[2, 2],
                DiskSchema::Traditional(3),
            ),
            4,
            3,
            128,
        ),
        (
            make_array(
                "t",
                &[8, 8],
                ElementType::F64,
                &[2, 2],
                DiskSchema::Custom(vec![Dist::Star, Dist::Block], vec![4]),
            ),
            4,
            2,
            64,
        ),
    ];
    for (meta, num_clients, num_servers, subchunk) in &cases {
        let (base_files, base_bufs) =
            roundtrip_at_depth(meta, *num_clients, *num_servers, *subchunk, 1);
        assert_pattern(meta, &base_bufs);
        for depth in [2usize, 3, 5] {
            let (files, bufs) =
                roundtrip_at_depth(meta, *num_clients, *num_servers, *subchunk, depth);
            assert_eq!(files, base_files, "depth {depth} files differ from depth 1");
            assert_pattern(meta, &bufs);
        }
    }
}

#[test]
fn depths_interoperate_on_the_same_files_localfs() {
    // Write with a pipelined system onto real files, read the same
    // files back with an unpipelined one (and vice versa): the on-disk
    // format is depth-independent.
    let root = std::env::temp_dir().join(format!("panda-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let roots: Vec<_> = (0..2).map(|s| root.join(format!("ionode{s}"))).collect();
    let launch = |depth: usize| {
        let config = PandaConfig::new(4, 2)
            .with_subchunk_bytes(256)
            .with_pipeline_depth(depth);
        PandaSystem::builder()
            .config(config.clone())
            .launch(|s| Arc::new(panda_fs::LocalFs::new(&roots[s]).unwrap()) as Arc<dyn FileSystem>)
            .unwrap()
    };

    let (system, mut clients) = launch(3);
    collective_write(&mut clients, &meta, "t");
    system.shutdown(clients).unwrap();
    let pipelined_files: Vec<Vec<u8>> = (0..2)
        .map(|s| std::fs::read(roots[s].join(format!("t.s{s}"))).unwrap())
        .collect();

    let (system, mut clients) = launch(1);
    let bufs = collective_read(&mut clients, &meta, "t");
    assert_pattern(&meta, &bufs);
    collective_write(&mut clients, &meta, "t");
    system.shutdown(clients).unwrap();
    let plain_files: Vec<Vec<u8>> = (0..2)
        .map(|s| std::fs::read(roots[s].join(format!("t.s{s}"))).unwrap())
        .collect();
    assert_eq!(pipelined_files, plain_files);

    let (system, mut clients) = launch(2);
    let bufs = collective_read(&mut clients, &meta, "t");
    assert_pattern(&meta, &bufs);
    system.shutdown(clients).unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pipelined_section_read_matches_unpipelined() {
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let section = Region::new(&[2, 3], &[13, 11]).unwrap();
    let mems: Vec<Arc<MemFs>> = (0..2).map(|_| Arc::new(MemFs::new())).collect();

    let (system, mut clients) = launch_mem_over(&mems, 4, 128, 1);
    collective_write(&mut clients, &meta, "t");
    let base = run_section_read(&mut clients, &meta, "t", &section);
    system.shutdown(clients).unwrap();

    let (system, mut clients) = launch_mem_over(&mems, 4, 128, 4);
    let piped = run_section_read(&mut clients, &meta, "t", &section);
    system.shutdown(clients).unwrap();
    assert_eq!(base, piped);
}

fn run_section_read(
    clients: &mut [panda_core::PandaClient],
    meta: &ArrayMeta,
    tag: &str,
    section: &Region,
) -> Vec<Vec<u8>> {
    let mut bufs: Vec<Vec<u8>> = clients
        .iter()
        .map(|c| vec![0u8; c.section_bytes(meta, section)])
        .collect();
    std::thread::scope(|s| {
        for (client, buf) in clients.iter_mut().zip(bufs.iter_mut()) {
            s.spawn(move || {
                client
                    .read_set(&mut ReadSet::new().section(
                        meta,
                        tag,
                        section.clone(),
                        buf.as_mut_slice(),
                    ))
                    .unwrap();
            });
        }
    });
    bufs
}

#[test]
fn pipelined_write_with_dead_client_is_a_typed_error_not_a_hang() {
    // Same failure injection as the unpipelined variant in
    // failure_paths.rs, but with a deep window: the servers have
    // several subchunks' fetches outstanding when the timeout fires,
    // and the disk-writer threads must be reaped, not abandoned.
    let meta = make_array("t", &[8, 8], ElementType::F64, &[2, 2], DiskSchema::Natural);
    let config = PandaConfig::new(4, 2)
        .with_recv_timeout(Duration::from_millis(300))
        .with_subchunk_bytes(64)
        .with_pipeline_depth(3);
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let datas: Vec<Vec<u8>> = (0..4).map(|r| pattern_chunk(&meta, r)).collect();

    let mut results: Vec<Result<(), PandaError>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&datas)
            .enumerate()
            .filter(|(rank, _)| *rank != 3) // client 3 "crashed"
            .map(|(_, (client, data))| {
                let meta = &meta;
                s.spawn(move || {
                    client.write_set(&WriteSet::new().array(meta, "t", data.as_slice()))
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().unwrap());
        }
    });
    assert!(results.iter().all(|r| r.is_err()));
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, PandaError::Msg(_) | PandaError::Protocol { .. }),
        "got {err}"
    );
}

#[test]
fn multi_array_pipelined_roundtrip() {
    // Arrays are processed strictly in order even when each one is
    // internally pipelined; the per-array seq spaces must not bleed
    // into each other.
    let a = make_array(
        "a",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Natural,
    );
    let b = make_array(
        "b",
        &[12, 8],
        ElementType::F32,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let mems: Vec<Arc<MemFs>> = (0..2).map(|_| Arc::new(MemFs::new())).collect();
    let (system, mut clients) = launch_mem_over(&mems, 4, 128, 3);
    let a_data: Vec<Vec<u8>> = (0..4).map(|r| pattern_chunk(&a, r)).collect();
    let b_data: Vec<Vec<u8>> = (0..4).map(|r| pattern_chunk(&b, r)).collect();
    std::thread::scope(|s| {
        for ((client, ad), bd) in clients.iter_mut().zip(&a_data).zip(&b_data) {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(a, "a", ad.as_slice()).array(
                        b,
                        "b",
                        bd.as_slice(),
                    ))
                    .unwrap();
            });
        }
    });
    let mut a_bufs: Vec<Vec<u8>> = (0..4).map(|r| vec![0u8; a.client_bytes(r)]).collect();
    let mut b_bufs: Vec<Vec<u8>> = (0..4).map(|r| vec![0u8; b.client_bytes(r)]).collect();
    std::thread::scope(|s| {
        for ((client, ab), bb) in clients
            .iter_mut()
            .zip(a_bufs.iter_mut())
            .zip(b_bufs.iter_mut())
        {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                client
                    .read_set(&mut ReadSet::new().array(a, "a", ab.as_mut_slice()).array(
                        b,
                        "b",
                        bb.as_mut_slice(),
                    ))
                    .unwrap();
            });
        }
    });
    assert_pattern(&a, &a_bufs);
    assert_pattern(&b, &b_bufs);
    system.shutdown(clients).unwrap();
}

/// One positioned access seen by [`StallFs`]: file, write?, offset, length.
type Access = (String, bool, u64, usize);

/// A [`MemFs`] whose every `every`-th write or read stalls for ~2 ms, and
/// which logs every write and read in the order the device saw them. A
/// stall makes the server's disk stage measure a slow device, so the
/// commands after it are handed to the pinned disk task; once the task
/// measures the device fast again, sub-grain commands run on the
/// scheduler. One collective therefore switches between the two
/// threads several times.
struct StallFs {
    inner: MemFs,
    every: usize,
    ops: Arc<AtomicUsize>,
    log: Arc<Mutex<Vec<Access>>>,
}

impl StallFs {
    fn new(every: usize) -> Self {
        StallFs {
            inner: MemFs::new(),
            every,
            ops: Arc::new(AtomicUsize::new(0)),
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn wrap(&self, name: &str, inner: Box<dyn FileHandle>) -> Box<dyn FileHandle> {
        Box::new(StallHandle {
            name: name.to_string(),
            inner,
            every: self.every,
            ops: Arc::clone(&self.ops),
            log: Arc::clone(&self.log),
        })
    }

    /// Each file's accesses in one direction, as `(offset, len)` in
    /// device order.
    fn accesses(&self, write: bool) -> HashMap<String, Vec<(u64, usize)>> {
        let mut per_file: HashMap<String, Vec<(u64, usize)>> = HashMap::new();
        for (name, w, offset, len) in self.log.lock().unwrap().iter() {
            if *w == write {
                per_file
                    .entry(name.clone())
                    .or_default()
                    .push((*offset, *len));
            }
        }
        per_file
    }
}

impl FileSystem for StallFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }
    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(self.wrap(path, self.inner.open(path)?))
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.inner.remove(path)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }
}

struct StallHandle {
    name: String,
    inner: Box<dyn FileHandle>,
    every: usize,
    ops: Arc<AtomicUsize>,
    log: Arc<Mutex<Vec<Access>>>,
}

impl StallHandle {
    fn access(&self, write: bool, offset: u64, len: usize) {
        self.log
            .lock()
            .unwrap()
            .push((self.name.clone(), write, offset, len));
        if (self.ops.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(self.every) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl FileHandle for StallHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.access(true, offset, data.len());
        self.inner.write_at(offset, data)
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.access(false, offset, buf.len());
        self.inner.read_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&mut self) -> Result<(), FsError> {
        self.inner.sync()
    }
    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        self.inner.preallocate(len)
    }
}

/// Assert that each file was accessed front to back: every access
/// starts where the previous one ended, from offset 0 to the file's end.
fn assert_sequential(per_file: &HashMap<String, Vec<(u64, usize)>>, fs: &StallFs, what: &str) {
    assert!(!per_file.is_empty(), "no {what}s reached the device");
    for (name, accesses) in per_file {
        let mut end = 0u64;
        for &(offset, len) in accesses {
            assert_eq!(offset, end, "{what} of {name} out of sequence");
            end += len as u64;
        }
        assert_eq!(end, fs.inner.contents(name).unwrap().len() as u64, "{name}");
    }
}

#[test]
fn commands_switching_threads_keep_files_identical_and_sequential() {
    // 1 MiB reorganized onto 2 I/O nodes: 16 subchunks of 32 KiB per
    // node, each assembled from (and scattered to) two clients.
    let meta = make_array(
        "t",
        &[512, 256],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let run = |depth: usize| {
        let fss: Vec<Arc<StallFs>> = (0..2).map(|_| Arc::new(StallFs::new(5))).collect();
        let handles = fss.clone();
        let config = PandaConfig::new(4, 2)
            .with_subchunk_bytes(32 * 1024)
            .with_pipeline_depth(depth)
            .with_recv_timeout(Duration::from_secs(20));
        let (system, mut clients) = PandaSystem::builder()
            .config(config)
            .launch(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
            .unwrap();
        collective_write(&mut clients, &meta, "t");
        let bufs = collective_read(&mut clients, &meta, "t");
        system.shutdown(clients).unwrap();
        assert_pattern(&meta, &bufs);
        fss
    };
    let serial = run(1);
    let piped = run(4);
    for (s, (a, b)) in serial.iter().zip(&piped).enumerate() {
        let name = format!("t.s{s}");
        assert_eq!(
            b.inner.contents(&name).unwrap(),
            a.inner.contents(&name).unwrap(),
            "depth 4 file {name} differs from depth 1"
        );
    }
    for fs in serial.iter().chain(&piped) {
        assert_sequential(&fs.accesses(true), fs, "write");
        assert_sequential(&fs.accesses(false), fs, "read");
    }
}
