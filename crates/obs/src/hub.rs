//! The metrics plane: the one lock-free, sharded aggregator of the
//! [`Recorder`] event stream.
//!
//! A [`MetricsHub`] folds every event into its shard *as it happens*:
//! one cell per [`EventKind`] (count, bytes, nanoseconds and a log₂
//! latency histogram, plus the least-squares moments `Σx²`/`Σxy` for
//! kinds that feed a [`Phase`]), the file-system sequential/seek tally,
//! per-tag send counts and per-tenant request ledgers. Every update is
//! a relaxed atomic add, and table slots are claimed by CAS, so the
//! collective hot path takes no lock. [`MetricsHub::snapshot`] merges
//! the shards into a typed [`MetricsSnapshot`] and derives the
//! per-phase metrics from the kind cells, which is exact because each
//! kind feeds at most one phase. The snapshot renders as Prometheus
//! text ([`MetricsSnapshot::to_prometheus`]) for `/metrics`, is the
//! counters section of a [`crate::RunReport`] (a
//! [`crate::TimelineRecorder`] embeds a hub), and bridges back into
//! calibration form ([`MetricsSnapshot::phase_stats`]) for the drift
//! detector in `panda-model`.
//!
//! # Snapshot contract
//!
//! Every counter is monotone: a later snapshot never reports less than
//! an earlier one, and a snapshot taken once recording has stopped is
//! exact. A snapshot is *not* a cut across counters: it reads each one
//! separately while writers run, so relations between kinds hold only
//! once the recorders are quiescent, and some never hold globally. One
//! collective on C clients and S servers records S `RequestIssued` but
//! C+S `CollectiveDone` events, so "never more done than issued" is
//! false even with no writer running. Ask per-request questions of the
//! tenant ledgers or of [`crate::RunReport::for_request`].
//!
//! Tenancy: request ids are minted as `((rank + 1) << 32) | counter`,
//! so the submitting client rank — the session owner — is recoverable
//! as `(request >> 32) - 1`. The hub keys its per-tenant slots on that
//! rank. When a shard's table is full, further tenants are tallied in
//! an overflow counter rather than blocking the hot path; message tags
//! use the same slot table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::calibrate::PhaseStats;
use crate::event::{Event, EventKind, Phase, KIND_COUNT};
use crate::recorder::Recorder;

/// Shards in a [`MetricsHub`] (events land on `node % SHARDS`, so
/// clients and servers spread across them).
const SHARDS: usize = 16;

/// Tenant slots per shard. A shard that sees more distinct tenants than
/// this tallies the excess in [`MetricsSnapshot::tenant_overflow`].
const TENANT_SLOTS: usize = 32;

/// Slots of a [`TagTable`]; sends with further distinct tags are
/// tallied in its overflow counter.
const TAG_SLOTS: usize = 64;

/// Claim word of a slot no key has taken yet.
const EMPTY: u64 = u64::MAX;

const PHASES: usize = Phase::ALL.len();

/// Number of log₂ latency buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds 0 ns).
const HIST_BUCKETS: usize = 40;

type Histogram = [AtomicU64; HIST_BUCKETS];

fn zeroed<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

fn bucket_of(nanos: u64) -> usize {
    ((64 - nanos.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Add a live histogram's occupancy into `acc`.
fn add_buckets(acc: &mut [u64], hist: &Histogram) {
    for (a, c) in acc.iter_mut().zip(hist) {
        *a += c.load(Ordering::Relaxed);
    }
}

/// Bucket-wise `now - base`, saturating.
fn sub_buckets(now: &[u64], base: &[u64]) -> Vec<u64> {
    now.iter()
        .zip(base)
        .map(|(n, b)| n.saturating_sub(*b))
        .collect()
}

/// Quantile `q` (in seconds) of a log₂ bucket-count array: the upper
/// bound of the bucket holding it (0 with no data).
fn quantile_of(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= target {
            // Upper bound of bucket i: 2^i ns (bucket 0 = 0 ns).
            let nanos = if i == 0 { 0u64 } else { 1u64 << i.min(62) };
            return nanos as f64 / 1e9;
        }
    }
    unreachable!("cumulative count reaches total");
}

/// Add `v` to an `f64` stored as bits in an [`AtomicU64`] (CAS loop —
/// lock-free, no ordering guarantees beyond atomicity, which is all the
/// statistics need).
fn f64_fetch_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Find or claim the slot keyed `key` by lock-free linear probing on
/// each slot's claim word (`EMPTY` until claimed; a claimed word never
/// changes again). `None` when every slot holds another key.
fn claim<T>(slots: &[T], key: u64, word: impl Fn(&T) -> &AtomicU64) -> Option<&T> {
    let start = key as usize % slots.len();
    for i in 0..slots.len() {
        let slot = &slots[(start + i) % slots.len()];
        let cur = word(slot).load(Ordering::Acquire);
        if cur == key {
            return Some(slot);
        }
        if cur == EMPTY {
            match word(slot).compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(slot),
                Err(actual) if actual == key => return Some(slot),
                Err(_) => continue,
            }
        }
    }
    None
}

/// One event kind's counters within a shard.
#[derive(Debug)]
struct KindCell {
    count: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
    /// `Σx²` and `Σxy` (x = bytes, y = seconds) as `f64` bits, kept
    /// only for kinds that feed a phase.
    sum_xx: AtomicU64,
    sum_xy: AtomicU64,
    hist: Histogram,
}

impl KindCell {
    fn new() -> Self {
        KindCell {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            sum_xx: AtomicU64::new(0f64.to_bits()),
            sum_xy: AtomicU64::new(0f64.to_bits()),
            hist: zeroed(),
        }
    }
}

/// One tag's slot in a [`TagTable`].
#[derive(Debug)]
struct TagSlot {
    tag: AtomicU64,
    msgs: AtomicU64,
    bytes: AtomicU64,
}

/// Lock-free per-tag send counts: a fixed table of slots claimed by the
/// same linear probe as the hub's tenant ledgers, so counting a send
/// takes no lock. Each hub shard keeps one, and so does every
/// `panda_msg::FabricStats`.
#[derive(Debug)]
pub struct TagTable {
    slots: [TagSlot; TAG_SLOTS],
    overflow: AtomicU64,
}

impl Default for TagTable {
    fn default() -> Self {
        TagTable {
            slots: std::array::from_fn(|_| TagSlot {
                tag: AtomicU64::new(EMPTY),
                msgs: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }),
            overflow: AtomicU64::new(0),
        }
    }
}

impl TagTable {
    /// Count one send of `bytes` payload bytes with `tag`.
    pub fn add(&self, tag: u32, bytes: u64) {
        match claim(&self.slots, u64::from(tag), |s| &s.tag) {
            Some(slot) => {
                slot.msgs.fetch_add(1, Ordering::Relaxed);
                slot.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            None => {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Send counts for `tag` (zero when never used).
    pub fn get(&self, tag: u32) -> TagStats {
        let none = TagStats {
            tag,
            msgs: 0,
            bytes: 0,
        };
        self.counts()
            .into_iter()
            .find(|t| t.tag == tag)
            .unwrap_or(none)
    }

    /// Every tag seen so far, sorted by tag.
    pub fn counts(&self) -> Vec<TagStats> {
        merge_tags(std::iter::once(self))
    }
}

/// Merge several tables' counts, sorted by tag.
fn merge_tags<'a>(tables: impl Iterator<Item = &'a TagTable>) -> Vec<TagStats> {
    let mut by_tag: BTreeMap<u32, TagStats> = BTreeMap::new();
    for slot in tables.flat_map(|t| &t.slots) {
        let tag = slot.tag.load(Ordering::Acquire);
        if tag == EMPTY {
            continue;
        }
        let t = by_tag.entry(tag as u32).or_insert(TagStats {
            tag: tag as u32,
            msgs: 0,
            bytes: 0,
        });
        t.msgs += slot.msgs.load(Ordering::Relaxed);
        t.bytes += slot.bytes.load(Ordering::Relaxed);
    }
    by_tag.into_values().collect()
}

/// One tenant's ledger within a shard. The slot is claimed by CAS on
/// `tenant`; counters are plain relaxed adds.
#[derive(Debug)]
struct TenantCell {
    tenant: AtomicU64,
    requests: AtomicU64,
    done: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    phase_ops: [AtomicU64; PHASES],
    phase_bytes: [AtomicU64; PHASES],
    phase_nanos: [AtomicU64; PHASES],
    done_hist: Histogram,
}

impl TenantCell {
    fn new() -> Self {
        TenantCell {
            tenant: AtomicU64::new(EMPTY),
            requests: AtomicU64::new(0),
            done: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            phase_ops: zeroed(),
            phase_bytes: zeroed(),
            phase_nanos: zeroed(),
            done_hist: zeroed(),
        }
    }
}

#[derive(Debug)]
struct Shard {
    kinds: [KindCell; KIND_COUNT],
    fs_sequential: AtomicU64,
    fs_seeks: AtomicU64,
    tags: TagTable,
    tenants: [TenantCell; TENANT_SLOTS],
    tenant_overflow: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            kinds: std::array::from_fn(|_| KindCell::new()),
            fs_sequential: AtomicU64::new(0),
            fs_seeks: AtomicU64::new(0),
            tags: TagTable::default(),
            tenants: std::array::from_fn(|_| TenantCell::new()),
            tenant_overflow: AtomicU64::new(0),
        }
    }
}

/// The session rank a request id belongs to, per the service's minting
/// scheme (`((rank + 1) << 32) | counter`). `None` for unscoped ids.
pub fn tenant_of(request: u64) -> Option<u64> {
    let owner = request >> 32;
    (owner != 0).then(|| owner - 1)
}

/// A lock-free sharded metrics registry; see the module docs.
#[derive(Debug)]
pub struct MetricsHub {
    epoch: Instant,
    shards: Box<[Shard]>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsHub {
    /// A fresh hub with zeroed counters.
    pub fn new() -> Self {
        MetricsHub {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Merge every shard into one view, under the contract in the
    /// module docs: relaxed loads, no retry, every counter monotone.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let kinds: Vec<KindStats> = EventKind::ALL
            .iter()
            .map(|&kind| {
                let mut k = KindStats::empty(kind);
                for cell in self.shards.iter().map(|s| &s.kinds[kind.index()]) {
                    k.count += load(&cell.count);
                    k.bytes += load(&cell.bytes);
                    k.nanos += load(&cell.nanos);
                    k.sum_xx += f64::from_bits(load(&cell.sum_xx));
                    k.sum_xy += f64::from_bits(load(&cell.sum_xy));
                    add_buckets(&mut k.buckets, &cell.hist);
                }
                k
            })
            .collect();

        let mut by_tenant: BTreeMap<u64, TenantMetrics> = BTreeMap::new();
        for cell in self.shards.iter().flat_map(|s| &s.tenants) {
            let tenant = cell.tenant.load(Ordering::Acquire);
            if tenant == EMPTY {
                continue;
            }
            let t = by_tenant
                .entry(tenant)
                .or_insert_with(|| TenantMetrics::empty(tenant));
            t.requests += load(&cell.requests);
            t.done += load(&cell.done);
            t.rejected += load(&cell.rejected);
            t.errors += load(&cell.errors);
            for p in 0..PHASES {
                t.phase_ops[p] += load(&cell.phase_ops[p]);
                t.phase_bytes[p] += load(&cell.phase_bytes[p]);
                t.phase_secs[p] += load(&cell.phase_nanos[p]) as f64 / 1e9;
            }
            add_buckets(&mut t.done_buckets, &cell.done_hist);
        }
        let sum =
            |field: fn(&Shard) -> &AtomicU64| self.shards.iter().map(|s| load(field(s))).sum();
        MetricsSnapshot {
            uptime_s: self.epoch.elapsed().as_secs_f64(),
            phases: fold_phases(&kinds),
            kinds,
            fs_sequential: sum(|s| &s.fs_sequential),
            fs_seeks: sum(|s| &s.fs_seeks),
            tags: merge_tags(self.shards.iter().map(|s| &s.tags)),
            tag_overflow: sum(|s| &s.tags.overflow),
            tenants: by_tenant.into_values().collect(),
            tenant_overflow: sum(|s| &s.tenant_overflow),
        }
    }
}

impl Recorder for MetricsHub {
    fn record(&self, node: u32, event: &Event<'_>) {
        let shard = &self.shards[node as usize % SHARDS];
        let kind = event.kind();
        let cell = &shard.kinds[kind.index()];
        cell.count.fetch_add(1, Ordering::Relaxed);
        let bytes = event.bytes();
        if bytes > 0 {
            cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        let dur = event.dur();
        let nanos = dur.map_or(0, |d| d.as_nanos() as u64);
        if dur.is_some() {
            if nanos > 0 {
                cell.nanos.fetch_add(nanos, Ordering::Relaxed);
            }
            cell.hist[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        }
        let phase = kind.phase();
        if phase.is_some() {
            let x = bytes as f64;
            f64_fetch_add(&cell.sum_xx, x * x);
            f64_fetch_add(&cell.sum_xy, x * (nanos as f64 / 1e9));
        }
        match *event {
            Event::FsRead { sequential, .. } | Event::FsWrite { sequential, .. } => {
                let tally = if sequential {
                    &shard.fs_sequential
                } else {
                    &shard.fs_seeks
                };
                tally.fetch_add(1, Ordering::Relaxed);
            }
            Event::MsgSent { tag, bytes, .. } => shard.tags.add(tag, bytes),
            _ => {}
        }

        let Some(tenant) = event.request().and_then(tenant_of) else {
            return;
        };
        let Some(cell) = claim(&shard.tenants, tenant, |c| &c.tenant) else {
            shard.tenant_overflow.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match kind {
            EventKind::RequestIssued => {
                cell.requests.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::CollectiveDone => {
                cell.done.fetch_add(1, Ordering::Relaxed);
                cell.done_hist[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
            }
            EventKind::AdmissionReject => {
                cell.rejected.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::RequestError => {
                cell.errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        if let Some(phase) = phase {
            let p = phase.index();
            cell.phase_ops[p].fetch_add(1, Ordering::Relaxed);
            if bytes > 0 {
                cell.phase_bytes[p].fetch_add(bytes, Ordering::Relaxed);
            }
            cell.phase_nanos[p].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    fn counters(&self) -> Option<CountersSnapshot> {
        Some(self.snapshot())
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.snapshot())
    }
}

/// One kind's merged counters.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStats {
    /// The event kind.
    pub kind: EventKind,
    /// Events recorded.
    pub count: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Duration carried, nanoseconds.
    pub nanos: u64,
    /// `Σx²` over events (x = bytes); zero unless the kind feeds a phase.
    pub sum_xx: f64,
    /// `Σxy` over events (x = bytes, y = seconds); zero unless the kind
    /// feeds a phase.
    pub sum_xy: f64,
    /// Raw log₂ histogram of the durations carried (for window deltas).
    pub buckets: Vec<u64>,
}

impl KindStats {
    fn empty(kind: EventKind) -> Self {
        KindStats {
            kind,
            count: 0,
            bytes: 0,
            nanos: 0,
            sum_xx: 0.0,
            sum_xy: 0.0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Duration carried, seconds.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Latency quantile `q` (log₂-bucket upper bound), seconds.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_of(&self.buckets, q)
    }
}

/// Send counts for one message tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagStats {
    /// The message tag.
    pub tag: u32,
    /// Messages sent with this tag.
    pub msgs: u64,
    /// Payload bytes sent with this tag.
    pub bytes: u64,
}

/// One phase's metrics, folded from the kinds that feed it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// The phase.
    pub phase: Phase,
    /// Duration-carrying events folded into this phase.
    pub ops: u64,
    /// Bytes those events carried.
    pub bytes: u64,
    /// Seconds those events carried.
    pub secs: f64,
    /// `Σx²` over events (x = bytes).
    pub sum_xx: f64,
    /// `Σxy` over events (x = bytes, y = seconds).
    pub sum_xy: f64,
    /// Raw log₂ histogram of per-event latency.
    pub buckets: Vec<u64>,
}

impl PhaseMetrics {
    /// Per-event latency quantile `q` (log₂-bucket upper bound), seconds.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_of(&self.buckets, q)
    }
}

/// Derive per-phase metrics from per-kind cells.
fn fold_phases(kinds: &[KindStats]) -> Vec<PhaseMetrics> {
    Phase::ALL
        .iter()
        .map(|&phase| {
            let (mut ops, mut bytes, mut nanos) = (0u64, 0u64, 0u64);
            let (mut sum_xx, mut sum_xy) = (0f64, 0f64);
            let mut buckets = vec![0u64; HIST_BUCKETS];
            for k in kinds.iter().filter(|k| k.kind.phase() == Some(phase)) {
                ops += k.count;
                bytes += k.bytes;
                nanos += k.nanos;
                sum_xx += k.sum_xx;
                sum_xy += k.sum_xy;
                for (acc, c) in buckets.iter_mut().zip(&k.buckets) {
                    *acc += c;
                }
            }
            PhaseMetrics {
                phase,
                ops,
                bytes,
                secs: nanos as f64 / 1e9,
                sum_xx,
                sum_xy,
                buckets,
            }
        })
        .collect()
}

/// One tenant's merged ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Session owner rank (the submitting client).
    pub tenant: u64,
    /// Collectives issued on servers for this tenant.
    pub requests: u64,
    /// Collective completions (all participating nodes).
    pub done: u64,
    /// Admission rejections.
    pub rejected: u64,
    /// Non-admission failures.
    pub errors: u64,
    /// Per-phase event counts, [`Phase::ALL`] order.
    pub phase_ops: [u64; PHASES],
    /// Per-phase bytes, [`Phase::ALL`] order.
    pub phase_bytes: [u64; PHASES],
    /// Per-phase seconds, [`Phase::ALL`] order.
    pub phase_secs: [f64; PHASES],
    /// Raw log₂ histogram of collective-completion latency.
    pub done_buckets: Vec<u64>,
}

impl TenantMetrics {
    fn empty(tenant: u64) -> Self {
        TenantMetrics {
            tenant,
            requests: 0,
            done: 0,
            rejected: 0,
            errors: 0,
            phase_ops: [0; PHASES],
            phase_bytes: [0; PHASES],
            phase_secs: [0.0; PHASES],
            done_buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Collective-completion latency quantile `q` (log₂-bucket upper
    /// bound), seconds.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_of(&self.done_buckets, q)
    }

    /// This ledger minus `base` (an earlier view of the same tenant).
    fn since(&self, base: &TenantMetrics) -> TenantMetrics {
        TenantMetrics {
            tenant: self.tenant,
            requests: self.requests.saturating_sub(base.requests),
            done: self.done.saturating_sub(base.done),
            rejected: self.rejected.saturating_sub(base.rejected),
            errors: self.errors.saturating_sub(base.errors),
            phase_ops: std::array::from_fn(|p| self.phase_ops[p].saturating_sub(base.phase_ops[p])),
            phase_bytes: std::array::from_fn(|p| {
                self.phase_bytes[p].saturating_sub(base.phase_bytes[p])
            }),
            phase_secs: std::array::from_fn(|p| (self.phase_secs[p] - base.phase_secs[p]).max(0.0)),
            done_buckets: sub_buckets(&self.done_buckets, &base.done_buckets),
        }
    }
}

/// A merged, typed view of a [`MetricsHub`] at one instant, under the
/// contract in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the hub was created.
    pub uptime_s: f64,
    /// Per-kind counters, [`EventKind::ALL`] order.
    pub kinds: Vec<KindStats>,
    /// Per-phase metrics, [`Phase::ALL`] order, derived from `kinds`.
    pub phases: Vec<PhaseMetrics>,
    /// File-system accesses classified as sequential.
    pub fs_sequential: u64,
    /// File-system accesses that required a seek.
    pub fs_seeks: u64,
    /// Per-tag message send counts, sorted by tag.
    pub tags: Vec<TagStats>,
    /// Sends whose tag found no free slot in its shard's table.
    pub tag_overflow: u64,
    /// Per-tenant ledgers, sorted by tenant rank.
    pub tenants: Vec<TenantMetrics>,
    /// Events whose tenant could not get a slot (table full).
    pub tenant_overflow: u64,
}

/// What [`Recorder::counters`] returns: aggregate counters are a hub
/// snapshot.
pub type CountersSnapshot = MetricsSnapshot;

impl MetricsSnapshot {
    /// Counters for one kind.
    pub fn kind(&self, kind: EventKind) -> &KindStats {
        &self.kinds[kind.index()]
    }

    /// Metrics for one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseMetrics {
        &self.phases[phase.index()]
    }

    /// Seconds of the kinds feeding `phase`, summed kind by kind in
    /// [`EventKind::ALL`] order — the figure a [`crate::RunReport`]
    /// reports. It can differ from [`PhaseMetrics::secs`], which sums
    /// nanoseconds first, in the last bit.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.kinds
            .iter()
            .filter(|k| k.kind.phase() == Some(phase))
            .map(KindStats::secs)
            .sum()
    }

    /// This phase's moments as calibration-form [`PhaseStats`], ready
    /// for `CostLine::from_stats` in the drift loop.
    pub fn phase_stats(&self, phase: Phase) -> PhaseStats {
        let p = self.phase(phase);
        PhaseStats::from_moments(p.ops, p.bytes, p.secs, p.sum_xx, p.sum_xy)
    }

    /// Send counts for one tag (zero when never used).
    pub fn tag(&self, tag: u32) -> TagStats {
        let none = TagStats {
            tag,
            msgs: 0,
            bytes: 0,
        };
        self.tags
            .iter()
            .find(|t| t.tag == tag)
            .copied()
            .unwrap_or(none)
    }

    /// The ledger for one tenant, if it has been seen.
    pub fn tenant(&self, tenant: u64) -> Option<&TenantMetrics> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Counters accumulated since `baseline` (an earlier snapshot of
    /// the same hub): the window view the drift detector scores, so a
    /// backend change mid-run is not averaged away by pre-change
    /// history. Saturating per field; phases and quantiles are derived
    /// again from the deltas.
    pub fn since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let kinds: Vec<KindStats> = self
            .kinds
            .iter()
            .zip(&baseline.kinds)
            .map(|(k, b)| KindStats {
                kind: k.kind,
                count: k.count.saturating_sub(b.count),
                bytes: k.bytes.saturating_sub(b.bytes),
                nanos: k.nanos.saturating_sub(b.nanos),
                sum_xx: (k.sum_xx - b.sum_xx).max(0.0),
                sum_xy: (k.sum_xy - b.sum_xy).max(0.0),
                buckets: sub_buckets(&k.buckets, &b.buckets),
            })
            .collect();
        let tags = self
            .tags
            .iter()
            .map(|t| {
                let b = baseline.tag(t.tag);
                TagStats {
                    tag: t.tag,
                    msgs: t.msgs.saturating_sub(b.msgs),
                    bytes: t.bytes.saturating_sub(b.bytes),
                }
            })
            .collect();
        let tenants = self
            .tenants
            .iter()
            .map(|t| match baseline.tenant(t.tenant) {
                Some(b) => t.since(b),
                None => t.clone(),
            })
            .collect();
        MetricsSnapshot {
            uptime_s: (self.uptime_s - baseline.uptime_s).max(0.0),
            phases: fold_phases(&kinds),
            kinds,
            fs_sequential: self.fs_sequential.saturating_sub(baseline.fs_sequential),
            fs_seeks: self.fs_seeks.saturating_sub(baseline.fs_seeks),
            tags,
            tag_overflow: self.tag_overflow.saturating_sub(baseline.tag_overflow),
            tenants,
            tenant_overflow: self
                .tenant_overflow
                .saturating_sub(baseline.tenant_overflow),
        }
    }

    /// Render as Prometheus text exposition (version 0.0.4): `# HELP` /
    /// `# TYPE` headers, then the samples of each family in `FAMILIES` with
    /// their `kind`/`phase`/`tenant` label dimensions.
    pub fn to_prometheus(&self) -> String {
        let by_kind = |value: fn(&KindStats) -> u64| -> Vec<(String, String)> {
            let kinds = self.kinds.iter().filter(|k| value(k) > 0);
            let label = |k: &KindStats| format!("{{kind=\"{}\"}}", k.kind.name());
            kinds.map(|k| (label(k), value(k).to_string())).collect()
        };
        let by_phase = |value: fn(&PhaseMetrics) -> String| -> Vec<(String, String)> {
            let label = |p: &PhaseMetrics| format!("{{phase=\"{}\"}}", p.phase.label());
            self.phases.iter().map(|p| (label(p), value(p))).collect()
        };
        let by_tenant = |value: fn(&TenantMetrics) -> u64| -> Vec<(String, String)> {
            let label = |t: &TenantMetrics| format!("{{tenant=\"{}\"}}", t.tenant);
            self.tenants
                .iter()
                .map(|t| (label(t), value(t).to_string()))
                .collect()
        };
        let summary = |label: String, buckets: &[u64]| {
            [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)].map(|(name, q)| {
                let value = fmt_f64(quantile_of(buckets, q));
                (format!("{{{label},quantile=\"{name}\"}}"), value)
            })
        };
        let phase_latency = self
            .phases
            .iter()
            .flat_map(|p| summary(format!("phase=\"{}\"", p.phase.label()), &p.buckets));
        let tenant_latency = self
            .tenants
            .iter()
            .flat_map(|t| summary(format!("tenant=\"{}\"", t.tenant), &t.done_buckets));
        let samples: [Vec<(String, String)>; FAMILIES.len()] = [
            vec![(String::new(), fmt_f64(self.uptime_s))],
            by_kind(|k| k.count),
            by_kind(|k| k.bytes),
            by_phase(|p| fmt_f64(p.secs)),
            by_phase(|p| p.ops.to_string()),
            by_phase(|p| p.bytes.to_string()),
            phase_latency.collect(),
            by_tenant(|t| t.requests),
            by_tenant(|t| t.done),
            by_tenant(|t| t.rejected),
            by_tenant(|t| t.errors),
            tenant_latency.collect(),
            vec![(String::new(), self.tenant_overflow.to_string())],
        ];
        let mut out = String::with_capacity(4096);
        for (family, samples) in FAMILIES.iter().zip(samples) {
            let (name, rest) = family.split_once(' ').unwrap_or_default();
            let (kind, help) = rest.split_once(' ').unwrap_or_default();
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            for (labels, value) in samples {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        }
        out
    }
}

/// Every `/metrics` family in exposition order, as `"name type help"`.
const FAMILIES: [&str; 13] = [
    "panda_uptime_seconds gauge Seconds since the metrics hub was created.",
    "panda_events_total counter Instrumentation events recorded, by kind.",
    "panda_event_bytes_total counter Bytes carried by events, by kind.",
    "panda_phase_seconds_total counter Time folded into each paper-style phase.",
    "panda_phase_ops_total counter Duration-carrying events per phase.",
    "panda_phase_bytes_total counter Bytes moved per phase.",
    "panda_phase_latency_seconds summary Per-event phase latency (log2-bucket upper bounds).",
    "panda_tenant_requests_total counter Collectives admitted, by tenant.",
    "panda_tenant_done_total counter Collective completions (all nodes), by tenant.",
    "panda_tenant_rejected_total counter Admission rejections, by tenant.",
    "panda_tenant_errors_total counter Non-admission failures, by tenant.",
    "panda_tenant_request_seconds summary Collective completion latency, by tenant.",
    "panda_tenant_overflow_total counter Tenant-scoped events dropped from per-tenant tables.",
];

/// Finite decimal rendering (Prometheus forbids `NaN`-ish surprises in
/// practice; non-finite values render as 0).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OpDir, SubchunkKey};
    use std::time::Duration;

    fn feed_request(hub: &MetricsHub, node: u32, request: u64, subchunks: u32) {
        hub.record(
            node,
            &Event::RequestIssued {
                request,
                op: OpDir::Write,
                arrays: 1,
                pipeline_depth: 2,
            },
        );
        for c in 0..subchunks {
            hub.record(
                node,
                &Event::DiskWriteDone {
                    key: SubchunkKey::scoped(request, 0, 0, c as usize),
                    offset: u64::from(c) * 4096,
                    bytes: 4096,
                    dur: Duration::from_micros(500),
                },
            );
        }
        hub.record(
            node,
            &Event::CollectiveDone {
                request,
                op: OpDir::Write,
                dur: Duration::from_millis(3),
            },
        );
    }

    /// One sequential-or-seeking file write and one tagged send.
    fn feed_io(hub: &MetricsHub, node: u32, i: u64) {
        hub.record(
            node,
            &Event::FsWrite {
                file: "f",
                offset: i * 8,
                bytes: 8,
                sequential: !i.is_multiple_of(3),
                dur: Duration::from_nanos(100),
            },
        );
        hub.record(
            node,
            &Event::MsgSent {
                to: 0,
                tag: (i % 3) as u32 + 1,
                bytes: 10,
                dur: Duration::ZERO,
            },
        );
    }

    #[test]
    fn tenant_of_inverts_the_minting_scheme() {
        assert_eq!(tenant_of((1 << 32) | 7), Some(0));
        assert_eq!(tenant_of((5 << 32) | 1), Some(4));
        assert_eq!(tenant_of(0), None);
        assert_eq!(tenant_of(41), None, "unscoped low ids have no tenant");
    }

    #[test]
    fn aggregates_kinds_phases_and_tenants() {
        let hub = MetricsHub::new();
        feed_request(&hub, 4, (1 << 32) | 1, 3); // tenant 0 on node 4
        feed_request(&hub, 5, (2 << 32) | 1, 2); // tenant 1 on node 5
        let snap = hub.snapshot();
        assert_eq!(snap.kind(EventKind::RequestIssued).count, 2);
        assert_eq!(snap.kind(EventKind::DiskWriteDone).count, 5);
        assert_eq!(snap.kind(EventKind::DiskWriteDone).bytes, 5 * 4096);
        let disk = snap.phase(Phase::Disk);
        assert_eq!(disk.ops, 5);
        assert_eq!(disk.bytes, 5 * 4096);
        assert!((disk.secs - 5.0 * 500e-6).abs() < 1e-9);
        assert!(disk.quantile(0.5) >= 500e-6 && disk.quantile(0.99) >= disk.quantile(0.5));
        assert_eq!(snap.tenants.len(), 2);
        let t0 = snap.tenant(0).unwrap();
        assert_eq!(t0.requests, 1);
        assert_eq!(t0.done, 1);
        assert_eq!(t0.phase_ops[Phase::Disk.index()], 3);
        assert_eq!(t0.phase_bytes[Phase::Disk.index()], 3 * 4096);
        assert!(
            t0.quantile(0.99) >= 3e-3,
            "completion tail covers the 3 ms done"
        );
        assert_eq!(snap.tenant(1).unwrap().phase_ops[Phase::Disk.index()], 2);
        assert_eq!(snap.tenant_overflow, 0);
        // The hub's counters are its snapshot, so a run report over a
        // bare hub carries phase totals.
        let report = crate::RunReport::from_recorder(&hub);
        assert_eq!(report.disk_s(), snap.phase_secs(Phase::Disk));
    }

    #[test]
    fn moments_round_trip_into_a_cost_line_fit() {
        let hub = MetricsHub::new();
        // Disk events at two sizes with a known line: t = 1e-4 + 1e-8·x.
        for (i, &bytes) in [1024u64, 1024, 8192, 8192].iter().enumerate() {
            let secs = 1e-4 + 1e-8 * bytes as f64;
            hub.record(
                6,
                &Event::DiskWriteDone {
                    key: SubchunkKey::scoped(1 << 32, 0, 0, i),
                    offset: 0,
                    bytes,
                    dur: Duration::from_secs_f64(secs),
                },
            );
        }
        let stats = hub.snapshot().phase_stats(Phase::Disk);
        let (per_op, per_byte) = stats.fit_line().expect("two sizes identify the line");
        assert!((per_op - 1e-4).abs() < 2e-6, "per_op {per_op}");
        assert!((per_byte - 1e-8).abs() < 2e-10, "per_byte {per_byte}");
    }

    #[test]
    fn since_isolates_the_window() {
        let hub = MetricsHub::new();
        feed_request(&hub, 4, (1 << 32) | 1, 4);
        feed_io(&hub, 4, 1); // sequential, tag 2
        let base = hub.snapshot();
        feed_request(&hub, 4, (1 << 32) | 2, 2);
        feed_io(&hub, 4, 3); // seek, tag 1
        let window = hub.snapshot().since(&base);
        assert_eq!(window.kind(EventKind::RequestIssued).count, 1);
        assert_eq!((window.fs_sequential, window.fs_seeks), (0, 1));
        assert_eq!((window.tag(1).msgs, window.tag(2).msgs), (1, 0));
        assert_eq!(window.phase(Phase::Disk).ops, 2);
        assert_eq!(window.phase(Phase::Disk).bytes, 2 * 4096);
        let t0 = window.tenant(0).unwrap();
        assert_eq!(t0.requests, 1);
        assert_eq!(t0.done, 1);
    }

    #[test]
    fn shards_merge_across_nodes() {
        let hub = MetricsHub::new();
        // Same tenant reporting from many ranks (client + servers).
        for node in 0..40u32 {
            feed_request(&hub, node, (3 << 32) | (u64::from(node) + 1), 1);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.kind(EventKind::RequestIssued).count, 40);
        let t = snap.tenant(2).unwrap();
        assert_eq!(t.requests, 40);
        assert_eq!(t.done, 40);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let hub = Arc::new(MetricsHub::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let hub = Arc::clone(&hub);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        feed_request(&hub, t as u32, ((t + 1) << 32) | (i + 1), 1);
                        feed_io(&hub, t as u32, i);
                    }
                });
            }
        });
        let snap = hub.snapshot();
        assert_eq!(snap.kind(EventKind::RequestIssued).count, 8 * 500);
        assert_eq!(snap.kind(EventKind::CollectiveDone).count, 8 * 500);
        assert_eq!(snap.phase(Phase::Disk).ops, 8 * 500);
        assert_eq!(snap.tenants.len(), 8);
        for t in 0..8u64 {
            assert_eq!(snap.tenant(t).unwrap().requests, 500);
        }
        assert_eq!(snap.tenant_overflow, 0);
        // i % 3 == 0 seeks: 167 of each thread's 500 writes.
        assert_eq!(snap.fs_seeks, 8 * 167);
        assert_eq!(snap.fs_sequential, 8 * 333);
        let per_tag = [167u64, 167, 166];
        for (i, &msgs) in per_tag.iter().enumerate() {
            let tag = snap.tag(i as u32 + 1);
            assert_eq!((tag.msgs, tag.bytes), (8 * msgs, 8 * msgs * 10));
        }
        assert_eq!(snap.tags.len(), 3);
        assert_eq!(snap.tag_overflow, 0);
    }

    #[test]
    fn snapshots_are_monotone_under_concurrent_writers() {
        // The contract that holds: with writers running, every counter
        // in a later snapshot is at least its value in an earlier one.
        use std::sync::atomic::AtomicBool;

        /// Stops the writers when dropped — also while unwinding from
        /// a failed assert, so a failure reports instead of leaving the
        /// scope waiting on the writers forever.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        /// Every counter of a snapshot, flattened in a fixed order.
        fn counters(s: &MetricsSnapshot) -> Vec<u64> {
            let mut v = vec![
                s.fs_sequential,
                s.fs_seeks,
                s.tag_overflow,
                s.tenant_overflow,
            ];
            v.extend(s.kinds.iter().flat_map(|k| [k.count, k.bytes, k.nanos]));
            v.extend(s.phases.iter().flat_map(|p| [p.ops, p.bytes]));
            v.extend((0..3).flat_map(|t| {
                let t = s.tenant(t);
                [t.map_or(0, |t| t.requests), t.map_or(0, |t| t.done)]
            }));
            v.extend((1..=3).flat_map(|tag| [s.tag(tag).msgs, s.tag(tag).bytes]));
            v
        }

        let hub = MetricsHub::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop);
            for w in 0..3u64 {
                let (hub, stop) = (&hub, &stop);
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        i += 1;
                        let node = (w * 7 + i) as u32 % 40;
                        feed_request(hub, node, ((w + 1) << 32) | i, 2);
                        feed_io(hub, node, i);
                    }
                });
            }
            let mut last = counters(&hub.snapshot());
            for round in 0..300 {
                let now = counters(&hub.snapshot());
                for (i, (a, b)) in last.iter().zip(&now).enumerate() {
                    assert!(b >= a, "round {round}: counter {i} fell from {a} to {b}");
                }
                last = now;
            }
        });
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let hub = MetricsHub::new();
        feed_request(&hub, 4, (1 << 32) | 1, 2);
        let text = hub.snapshot().to_prometheus();
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP panda_") || line.starts_with("# TYPE panda_"),
                    "bad comment line: {line}"
                );
                continue;
            }
            // name{labels} value | name value
            let (head, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparsable value in: {line}");
            let name = head.split('{').next().unwrap();
            assert!(name.starts_with("panda_"), "bad family name in: {line}");
            if let Some(rest) = head.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                }
            }
        }
        assert!(text.contains("panda_events_total{kind=\"request_issued\"} 1"));
        assert!(text.contains("panda_phase_seconds_total{phase=\"disk\"}"));
        assert!(text.contains("panda_tenant_requests_total{tenant=\"0\"} 1"));
        assert!(text.contains("panda_tenant_request_seconds{tenant=\"0\",quantile=\"0.99\"}"));
    }

    #[test]
    fn histogram_quantiles_bound_latencies() {
        let hub = MetricsHub::new();
        for (n, dur) in [
            (90, Duration::from_micros(10)),
            (10, Duration::from_millis(50)),
        ] {
            for _ in 0..n {
                hub.record(
                    0,
                    &Event::DiskWriteDone {
                        key: SubchunkKey::new(0, 0, 0),
                        offset: 0,
                        bytes: 1,
                        dur,
                    },
                );
            }
        }
        let snap = hub.snapshot();
        let disk = snap.kind(EventKind::DiskWriteDone);
        // The p50 upper bound is ≥ the true 10 µs but well under the
        // 50 ms tail; p99 must cover the tail's bucket.
        let (p50, p99) = (disk.quantile(0.5), disk.quantile(0.99));
        assert!((10e-6..1e-3).contains(&p50), "{p50}");
        assert!(p99 >= 0.05 / 2.0, "{p99}");
        assert_eq!(disk.count, 100);
    }

    #[test]
    fn phases_fold_exactly_from_their_kinds() {
        let hub = MetricsHub::new();
        let key = SubchunkKey::new(0, 0, 0);
        for (node, event) in [
            (
                0,
                Event::FetchReplied {
                    key,
                    bytes: 1,
                    wait: Duration::from_millis(5),
                },
            ),
            (
                3,
                Event::DiskWriteDone {
                    key,
                    offset: 0,
                    bytes: 2,
                    dur: Duration::from_millis(7),
                },
            ),
            (
                19,
                Event::DiskReadDone {
                    key,
                    offset: 0,
                    bytes: 4,
                    dur: Duration::from_millis(1),
                },
            ),
            (
                0,
                Event::ReorgWorker {
                    key,
                    piece: 0,
                    bytes: 1,
                    dur: Duration::from_millis(1),
                },
            ),
        ] {
            hub.record(node, &event);
        }
        let snap = hub.snapshot();
        assert!((snap.phase(Phase::Exchange).secs - 0.005).abs() < 1e-9);
        let disk = snap.phase(Phase::Disk);
        assert_eq!((disk.ops, disk.bytes), (2, 6));
        assert!((disk.secs - 0.008).abs() < 1e-9);
        assert_eq!(disk.sum_xx, 4.0 + 16.0);
        assert_eq!(disk.buckets.iter().sum::<u64>(), 2);
        assert!((snap.phase_secs(Phase::Reorg) - 0.001).abs() < 1e-9);
        // Kinds outside every phase keep no moments.
        assert_eq!(snap.kind(EventKind::FetchSent).sum_xx, 0.0);
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut last = 0;
        for nanos in [0u64, 1, 2, 3, 10, 1000, 1 << 20, u64::MAX] {
            let b = bucket_of(nanos);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn tag_table_counts_and_overflows() {
        let table = TagTable::default();
        for (tag, bytes) in [(3u32, 100u64), (3, 50), (7, 1)] {
            table.add(tag, bytes);
        }
        assert_eq!(
            table.get(3),
            TagStats {
                tag: 3,
                msgs: 2,
                bytes: 150
            }
        );
        assert_eq!(table.get(99).msgs, 0);
        let all = table.counts();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].tag, 3);
        for tag in 100..100 + TAG_SLOTS as u32 {
            table.add(tag, 1);
        }
        assert_eq!(table.counts().len(), TAG_SLOTS);
        assert_eq!(
            table.overflow.load(Ordering::Relaxed),
            2,
            "two tags found no slot"
        );
    }
}
