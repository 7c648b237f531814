//! Memory-budgeted mini-batch store with real disk spill.
//!
//! Reproduces the system regime behind the paper's end-to-end results
//! (Figure 1A/D, §5.3): encoded mini-batches live in memory until a
//! configurable budget is exhausted; the remainder spills to disk and is
//! re-read (real file IO + deserialization) on every visit. Whether a
//! format's batches fit in the budget is exactly what separates TOC from
//! the baselines on the large-scale runs.
//!
//! [`ShardedSpillStore`] implements the regime. Every batch is one entry
//! of a single append-only segment table: resident or on disk, built up
//! front ([`ShardedSpillStore::build`]) or appended by streaming ingest
//! ([`ShardedSpillStore::append_sealed`]). Spilled batches are laid out
//! across N shard files ([`StoreConfig::with_shards`]; one shard is the
//! classic single spill file) and read with positional IO ([`crate::io`]),
//! so concurrent visitors never serialize on a shared file cursor. An
//! optional prefetch pipeline ([`StoreConfig::with_prefetch`]) keeps
//! upcoming build-time batches decoded while the trainer computes on the
//! current one. The IO is real and never sleeps: simulated bandwidth
//! comes only from a test-support [`crate::testing::FaultPlan::device`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use toc_formats::{AnyBatch, ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

use crate::io::{lock, rlock, wait, wlock, IoShards, SpillFile};
pub use crate::io::{IoSnapshot, IoStats};

/// How spilled batches are laid out across the shard files.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPlacement {
    /// Round-robin striping: batch `i` lands on shard `i % N`. Maximizes
    /// per-visit device parallelism; consecutive visit-order batches are
    /// `N` apart in each shard file.
    #[default]
    Stripe,
    /// Compression-aware packing: consecutive spilled batches fill one
    /// shard until a byte-sized run target, then move to the next shard
    /// (runs round-robin over shards). Small, highly-compressed batches
    /// cluster adjacently in one file, so a sweep reads each shard
    /// sequentially. The adaptive planner's starting layout, and the
    /// baseline its acceptance gate measures against.
    Pack,
    /// Bandwidth-profiled adaptive placement: batches start in the `Pack`
    /// layout, every physical read charges its observed throughput into
    /// the per-shard EWMA ([`crate::io::BandwidthProfile`]), and at each
    /// epoch boundary ([`BatchProvider::end_epoch`], or
    /// [`ShardedSpillStore::rebalance`] directly) the planner re-packs
    /// hot (frequently re-visited) batches onto the shards measured
    /// fastest, migrating by append-and-repoint so in-flight reads of the
    /// old location stay valid. A slow or degrading device sheds its
    /// batches instead of serializing every epoch.
    Adaptive,
}

impl ShardPlacement {
    pub fn name(self) -> &'static str {
        match self {
            ShardPlacement::Stripe => "stripe",
            ShardPlacement::Pack => "pack",
            ShardPlacement::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for ShardPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ShardPlacement {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "stripe" => Ok(ShardPlacement::Stripe),
            "pack" => Ok(ShardPlacement::Pack),
            "adaptive" => Ok(ShardPlacement::Adaptive),
            other => Err(format!(
                "unknown placement {other:?} (stripe|pack|adaptive)"
            )),
        }
    }
}

/// Store configuration.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Encoding scheme for all batches.
    pub scheme: Scheme,
    /// Rows per mini-batch (the paper uses 250 for the end-to-end runs).
    pub batch_rows: usize,
    /// Bytes of encoded batches kept in memory; anything beyond spills.
    pub memory_budget: usize,
    /// Spill directory; defaults to a fresh directory under the OS temp dir.
    pub spill_dir: Option<PathBuf>,
    /// Number of shard files for [`ShardedSpillStore`]; `0` means one
    /// shard per available hardware thread.
    pub shards: usize,
    /// Prefetch pipeline depth for [`ShardedSpillStore`]: how many
    /// upcoming spilled batches the pipeline keeps scheduled ahead of the
    /// visitors, and how many workers (up to 8) read and decode them.
    /// `0` disables prefetch.
    pub prefetch: usize,
    /// Spilled-batch layout across shard files.
    pub placement: ShardPlacement,
    /// Fault-injection plan (test support; see [`crate::testing`]): when
    /// set, every spill read meets its read faults (latency, chunked
    /// short reads, `EINTR`-style retries), every streaming append its
    /// write faults, and its `device_profiles` become the simulated shard
    /// devices every physical read is charged to. `None` = real IO.
    pub fault: Option<crate::testing::FaultPlan>,
    /// Per-scheme encoding knobs (CLA planner choice and sample size).
    pub encode: toc_formats::EncodeOptions,
    /// Bounded sealed-chunk budget for streaming ingestion: when > 0,
    /// [`ShardedSpillStore::append_sealed`] blocks while more than this
    /// many appended segments are sealed but not yet consumed by any
    /// visitor, accumulating the stall in
    /// [`IoStats::ingest_stall_ns`]. `0` (default) never blocks — the
    /// segment table grows as fast as the producer can encode.
    pub max_pending: usize,
}

impl StoreConfig {
    pub fn new(scheme: Scheme, batch_rows: usize, memory_budget: usize) -> Self {
        Self {
            scheme,
            batch_rows,
            memory_budget,
            spill_dir: None,
            shards: 0,
            prefetch: 0,
            placement: ShardPlacement::Stripe,
            fault: None,
            encode: toc_formats::EncodeOptions::default(),
            max_pending: 0,
        }
    }

    /// Builder-style bounded sealed-chunk budget for streaming
    /// ingestion (`0` = unbounded, never block the producer).
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Builder-style encoding-options override.
    pub fn with_encode_options(mut self, encode: toc_formats::EncodeOptions) -> Self {
        self.encode = encode;
        self
    }

    /// Builder-style shard-count override (`0` = available parallelism).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style prefetch-depth override (`0` = no prefetch).
    pub fn with_prefetch(mut self, depth: usize) -> Self {
        self.prefetch = depth;
        self
    }

    /// Builder-style shard-placement override.
    pub fn with_placement(mut self, placement: ShardPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style fault-plan override (test support; the only way to
    /// simulate device bandwidth).
    pub fn with_fault_plan(mut self, plan: crate::testing::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder-style spill-directory override.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// A batch must hold at least one row: with `batch_rows == 0` the
    /// batching loops would never advance.
    fn check_batch_rows(&self) -> std::io::Result<()> {
        if self.batch_rows == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "batch_rows must be >= 1",
            ));
        }
        Ok(())
    }

    fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }
}

static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread staging for synchronous spilled reads. Prefetch workers
    /// own an [`ExecScratch`] slot; every other reader (plain visits,
    /// prefetch misses) reuses this buffer, so the hot read path performs
    /// no per-read heap allocation on any thread.
    static SYNC_SPILL_BUF: std::cell::RefCell<Vec<u8>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Create `n` fresh, empty shard files in the spill directory — and no
/// directory at all when `n == 0`. The directory is the configured one,
/// or a fresh per-store one under the OS temp dir, which is returned as
/// owned (for cleanup).
#[allow(clippy::type_complexity)]
fn create_shards(
    config: &StoreConfig,
    n: usize,
) -> std::io::Result<(Vec<(File, PathBuf)>, Option<PathBuf>)> {
    if n == 0 {
        return Ok((Vec::new(), None));
    }
    let (dir, owns) = match &config.spill_dir {
        Some(d) => (d.clone(), None),
        None => {
            let d = std::env::temp_dir().join(format!(
                "toc-store-{}-{}",
                std::process::id(),
                NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            ));
            (d.clone(), Some(d))
        }
    };
    fs::create_dir_all(&dir)?;
    // Per-store id in the name: two stores sharing an explicit spill_dir
    // (and scheme) must not truncate or unlink each other's shard files.
    let store_id = NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed);
    let shards = (0..n)
        .map(|s| {
            let path = dir.join(format!(
                "spill-{}-{}-s{}.bin",
                config.scheme.tag(),
                store_id,
                s
            ));
            let f = OpenOptions::new()
                .create(true)
                .write(true)
                .read(true)
                .truncate(true)
                .open(&path)?;
            Ok((f, path))
        })
        .collect::<std::io::Result<_>>()?;
    Ok((shards, owns))
}

// ---------------------------------------------------------------------------
// ShardedSpillStore: one segment table over N shard files, plus the
// background prefetch pipeline.

/// Where a spilled batch lives.
#[derive(Clone, Copy, Debug)]
struct DiskLoc {
    shard: usize,
    offset: u64,
    len: usize,
}

/// Where a segment's encoded batch lives.
enum Body {
    Memory(AnyBatch),
    /// Spilled. The location sits behind a lock because adaptive
    /// placement repoints it between epochs (the bytes never change).
    Disk(RwLock<DiskLoc>),
}

/// One batch of the store's segment table.
pub(crate) struct Segment {
    body: Body,
    pub(crate) labels: Vec<f64>,
    /// Visits of the spilled body — the hotness signal the adaptive
    /// planner and the tenant cache rank batches by.
    visits: AtomicU64,
}

impl Segment {
    fn new(body: Body, labels: Vec<f64>) -> Self {
        Self {
            body,
            labels,
            visits: AtomicU64::new(0),
        }
    }

    fn disk_loc(&self) -> Option<DiskLoc> {
        match &self.body {
            Body::Disk(loc) => Some(*rlock(loc)),
            Body::Memory(_) => None,
        }
    }

    /// Current `(shard, len)` of a spilled segment, `None` for a resident
    /// one (the shard may change across adaptive rebalances).
    pub(crate) fn spill_extent(&self) -> Option<(usize, usize)> {
        self.disk_loc().map(|loc| (loc.shard, loc.len))
    }

    /// Bump the visit counter and return the new count.
    pub(crate) fn record_visit(&self) -> u64 {
        self.visits.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Placement counters for the adaptive planner (exposed through
/// [`PlacementReport`]).
#[derive(Default)]
struct PlacementStats {
    /// Rebalance passes that had enough profiler signal to plan.
    rebalances: AtomicU64,
    /// Batches migrated to a different shard.
    migrated_batches: AtomicU64,
    /// Bytes those migrations copied.
    migrated_bytes: AtomicU64,
}

/// State shared between the store handle and the prefetch workers.
struct Inner {
    scheme: Scheme,
    features: usize,
    /// The segment table in batch order: build-time segments, then every
    /// appended one. Append-only, so an index never changes meaning.
    /// Visitors clone a segment out of a brief read lock and do their IO
    /// and decode lock-free.
    segments: RwLock<Vec<Arc<Segment>>>,
    /// Visibility watermark and [`BatchProvider::num_batches`]: bumped
    /// with `Release` only after a segment's bytes are fully in its shard
    /// file *and* the segment is in the table, so any index below the
    /// watermark (loaded with `Acquire`) resolves to completely-written,
    /// decodable bytes.
    sealed: AtomicUsize,
    /// Build-time segments: the table length when `build` returned (0 for
    /// a streaming store, resumed or not). Segments at or past `base` were
    /// appended through [`ShardedSpillStore::append_sealed`].
    base: usize,
    shard_paths: Vec<PathBuf>,
    /// Per-shard append cursors and the appended-byte total. Doubles as
    /// the placement mutation lock: rebalance and appends hold it end to
    /// end, so plans and cursor bumps never interleave — and `sealed`
    /// only moves under it, so two racing appenders serialize instead of
    /// interleaving indices.
    append: Mutex<AppendState>,
    /// Exclusive [`crate::StoreIngest`] registration: one structured
    /// ingest driver at a time (raw `append_sealed` calls stay legal and
    /// serialize on the append mutex).
    appender_active: std::sync::atomic::AtomicBool,
    /// Bounded sealed-chunk budget (`0` = unbounded).
    max_pending: usize,
    /// Consumed watermark for backpressure: one past the highest batch
    /// index any visitor has finished reading, never below `base`.
    /// `append_sealed` blocks while `sealed - consumed >= max_pending`.
    consumed: Mutex<usize>,
    /// Wakes a blocked producer when a visitor advances `consumed`.
    consumed_cv: Condvar,
    /// High-water mark of `sealed - consumed` observed at append time.
    peak_pending: AtomicUsize,
    placement_stats: PlacementStats,
    io: Arc<IoShards>,
}

/// Exclusive structured-appender registration
/// ([`ShardedSpillStore::try_acquire_appender`]): held by a
/// [`crate::StoreIngest`] for its lifetime, released on drop.
pub struct AppenderToken<'a> {
    inner: &'a Inner,
}

impl Drop for AppenderToken<'_> {
    fn drop(&mut self) {
        self.inner
            .appender_active
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

/// One sealed segment recorded in a [`StoreCheckpoint`]: its current
/// shard extent and its labels.
#[derive(Clone, Debug, PartialEq)]
struct CheckpointEntry {
    shard: u32,
    offset: u64,
    len: u64,
    labels: Vec<f64>,
}

/// Serializable snapshot of a streaming store's append state
/// ([`ShardedSpillStore::streaming_checkpoint`] /
/// [`ShardedSpillStore::open_streaming_resume`]): shard file paths,
/// per-shard cursors, and every sealed segment's extent + labels.
/// Integrity (checksums) is the enclosing sidecar's job — see
/// `toc_data::ingest`.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreCheckpoint {
    shard_paths: Vec<PathBuf>,
    cursors: Vec<u64>,
    entries: Vec<CheckpointEntry>,
}

const STORE_CKPT_V1: u8 = 1;

impl StoreCheckpoint {
    /// Segments recorded in this checkpoint.
    pub fn num_segments(&self) -> usize {
        self.entries.len()
    }

    /// Total encoded bytes across the recorded segments.
    pub fn encoded_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// The shard files this checkpoint expects to find on disk.
    pub fn shard_paths(&self) -> &[PathBuf] {
        &self.shard_paths
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STORE_CKPT_V1);
        out.extend_from_slice(&(self.shard_paths.len() as u32).to_le_bytes());
        for (path, cursor) in self.shard_paths.iter().zip(&self.cursors) {
            let p = path.to_string_lossy();
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p.as_bytes());
            out.extend_from_slice(&cursor.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.shard.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&(e.labels.len() as u64).to_le_bytes());
            for l in &e.labels {
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            if n > bytes.len() - *pos {
                return Err("store checkpoint truncated".into());
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let u32_at = |pos: &mut usize| -> Result<u32, String> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()))
        };
        let u64_at = |pos: &mut usize| -> Result<u64, String> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
        };
        if *take(&mut pos, 1)?.first().unwrap() != STORE_CKPT_V1 {
            return Err("unknown store-checkpoint version".into());
        }
        let n_shards = u32_at(&mut pos)? as usize;
        if n_shards == 0 || n_shards > 4096 {
            return Err(format!("implausible shard count {n_shards}"));
        }
        let mut shard_paths = Vec::with_capacity(n_shards);
        let mut cursors = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let plen = u32_at(&mut pos)? as usize;
            let p = std::str::from_utf8(take(&mut pos, plen)?)
                .map_err(|_| "bad shard path encoding".to_string())?;
            shard_paths.push(PathBuf::from(p));
            cursors.push(u64_at(&mut pos)?);
        }
        let n_entries = u64_at(&mut pos)? as usize;
        if n_entries > bytes.len() {
            return Err("store checkpoint claims more entries than it carries".into());
        }
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let shard = u32_at(&mut pos)?;
            let offset = u64_at(&mut pos)?;
            let len = u64_at(&mut pos)?;
            let n_labels = u64_at(&mut pos)? as usize;
            if n_labels > bytes.len() {
                return Err("store checkpoint claims more labels than it carries".into());
            }
            let mut labels = Vec::with_capacity(n_labels);
            for _ in 0..n_labels {
                labels.push(f64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
            }
            entries.push(CheckpointEntry {
                shard,
                offset,
                len,
                labels,
            });
        }
        if pos != bytes.len() {
            return Err("trailing bytes after store checkpoint".into());
        }
        Ok(Self {
            shard_paths,
            cursors,
            entries,
        })
    }
}

/// Mutable append state, behind one mutex with the `sealed` bumps so a
/// stats snapshot can never observe `bytes` ahead of the sealed count.
struct AppendState {
    /// Per-shard append cursors (current file length).
    cursors: Vec<u64>,
    /// Encoded bytes across the appended segments (`base..sealed`).
    bytes: u64,
}

impl Inner {
    /// The one place a store's shared state is assembled: the shard files
    /// (and the fault plan's simulated devices, if any) around an empty
    /// segment table.
    fn new(
        features: usize,
        config: &StoreConfig,
        shards: Vec<(File, PathBuf)>,
        cursors: Vec<u64>,
    ) -> Self {
        let (files, shard_paths): (Vec<SpillFile>, Vec<PathBuf>) = shards
            .into_iter()
            .map(|(f, path)| (SpillFile::new(f), path))
            .unzip();
        Self {
            scheme: config.scheme,
            features,
            segments: RwLock::new(Vec::new()),
            sealed: AtomicUsize::new(0),
            base: 0,
            shard_paths,
            append: Mutex::new(AppendState { cursors, bytes: 0 }),
            appender_active: std::sync::atomic::AtomicBool::new(false),
            max_pending: config.max_pending,
            consumed: Mutex::new(0),
            consumed_cv: Condvar::new(),
            peak_pending: AtomicUsize::new(0),
            placement_stats: PlacementStats::default(),
            io: Arc::new(IoShards::new(files, config.fault.clone())),
        }
    }

    /// Segment `idx` (below the `sealed` watermark).
    fn segment(&self, idx: usize) -> Arc<Segment> {
        Arc::clone(&rlock(&self.segments)[idx])
    }

    /// Read and parse one spilled batch into the caller's reusable
    /// staging slot. Panics on IO failure or corrupt bytes — the visit
    /// path surfaces spill corruption loudly instead of training on
    /// garbage.
    fn read_disk(&self, loc: DiskLoc, buf: &mut Vec<u8>) -> AnyBatch {
        self.io
            .read_range(loc.shard, loc.offset, loc.len, buf)
            .expect("read spill file");
        Scheme::from_bytes(buf).expect("spill data corrupted")
    }

    /// [`Self::read_disk`] staged through the visitor thread's reusable
    /// buffer (plain visits and prefetch misses).
    fn read_disk_sync(&self, loc: DiskLoc) -> AnyBatch {
        SYNC_SPILL_BUF.with(|cell| self.read_disk(loc, &mut cell.borrow_mut()))
    }

    /// The write path of every segment this store spills, built or
    /// appended, called with the append lock held: the bytes land at
    /// `shard`'s cursor (through the store's write faults when `faulty`
    /// and a fault plan is set), then the segment is published. Returns
    /// its batch index.
    fn append_disk(
        &self,
        append: &mut AppendState,
        shard: usize,
        bytes: &[u8],
        labels: Vec<f64>,
        faulty: bool,
    ) -> std::io::Result<usize> {
        let offset = append.cursors[shard];
        match self.io.fault.as_ref().filter(|_| faulty) {
            Some(plan) => {
                let seq = self.sealed.load(Ordering::Relaxed) - self.base;
                plan.faulty_append(&self.io, shard, offset, bytes, seq as u64)?
            }
            None => self.io.files[shard].write_all_at(bytes, offset)?,
        }
        append.cursors[shard] = offset + bytes.len() as u64;
        let loc = DiskLoc {
            shard,
            offset,
            len: bytes.len(),
        };
        Ok(self.publish(Segment::new(Body::Disk(RwLock::new(loc)), labels)))
    }

    /// Push a complete segment onto the table and raise the watermark
    /// past it (visibility last). Returns its batch index.
    fn publish(&self, segment: Segment) -> usize {
        let mut table = wlock(&self.segments);
        table.push(Arc::new(segment));
        self.sealed.store(table.len(), Ordering::Release);
        table.len() - 1
    }

    /// Advance the consumed watermark past `idx` once a visitor is done
    /// with it, releasing a producer blocked on the sealed-chunk budget.
    fn mark_consumed(&self, idx: usize) {
        let mut consumed = lock(&self.consumed);
        if idx + 1 > *consumed {
            *consumed = idx + 1;
            drop(consumed);
            self.consumed_cv.notify_all();
        }
    }
}

#[derive(Default)]
struct PrefetchState {
    /// Indices scheduled but not yet picked up by a worker.
    queue: VecDeque<usize>,
    /// Indices a worker is reading or decoding right now.
    pending: HashSet<usize>,
    /// Decoded batches awaiting their visitor.
    ready: HashMap<usize, AnyBatch>,
    shutdown: bool,
}

struct PrefetchShared {
    state: Mutex<PrefetchState>,
    /// Wakes workers: new work queued, backpressure released, shutdown.
    work: Condvar,
    /// Wakes visitors blocked on an in-flight slot.
    done: Condvar,
}

/// Background decode pipeline: worker threads pull scheduled indices,
/// read them from the shards ([`IoShards::read_range`]: positional IO,
/// faults and simulated devices when a plan is set) into reusable
/// [`ExecScratch`]-backed slots, and park the decoded batches for the
/// visitors. Each visit schedules the next `depth` spilled indices;
/// backpressure caps decoded-but-unconsumed batches at `2 × depth`.
struct Prefetcher {
    shared: Arc<PrefetchShared>,
    depth: usize,
    /// Indices of the spilled build-time segments, ascending — the cyclic
    /// orbit the lookahead walks (a store can hold arbitrarily many
    /// resident batches between spilled ones; scanning the table for the
    /// next spilled index under the prefetch lock would be O(n)).
    /// Appended segments are outside it and always read synchronously.
    order: Vec<usize>,
    workers: Vec<JoinHandle<()>>,
}

const MAX_PREFETCH_WORKERS: usize = 8;

impl Prefetcher {
    /// Start `depth` workers (at most [`MAX_PREFETCH_WORKERS`]), seeded
    /// with the first `depth` orbit indices so the very first epoch
    /// already overlaps IO with compute.
    fn start(inner: Arc<Inner>, order: Vec<usize>, depth: usize) -> Self {
        let shared = Arc::new(PrefetchShared {
            state: Mutex::new(PrefetchState {
                queue: order.iter().take(depth).copied().collect(),
                ..PrefetchState::default()
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..depth.clamp(1, MAX_PREFETCH_WORKERS))
            .map(|_| {
                let inner = Arc::clone(&inner);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&inner, &shared, depth))
            })
            .collect();
        Self {
            shared,
            depth,
            order,
            workers,
        }
    }

    /// Schedule the next orbit indices after `idx` (cyclically, so the
    /// pipeline stays warm across epoch boundaries) that are not already
    /// queued, being read, or decoded. The queue is capped at `depth`:
    /// visits consume one slot each, so an uncapped queue would grow
    /// until every spilled index sat in it and the `queue.contains`
    /// membership scan became O(n) under the shared
    /// lock. The cap keeps that scan O(depth).
    fn schedule_lookahead(&self, st: &mut PrefetchState, idx: usize) {
        let order = &self.order;
        let start = order.partition_point(|&i| i <= idx);
        for k in 0..order.len() {
            if st.queue.len() >= self.depth {
                break;
            }
            let i = order[(start + k) % order.len()];
            if !st.pending.contains(&i) && !st.ready.contains_key(&i) && !st.queue.contains(&i) {
                st.queue.push_back(i);
            }
        }
    }

    fn worker_loop(inner: &Inner, shared: &PrefetchShared, depth: usize) {
        // The reusable slot: IO staging lives in the worker's scratch and
        // persists across prefetches, so steady-state prefetching
        // allocates only the decoded batch itself.
        let mut scratch = ExecScratch::default();
        loop {
            let idx = {
                let mut st = lock(&shared.state);
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.ready.len() < 2 * depth {
                        if let Some(i) = st.queue.pop_front() {
                            st.pending.insert(i);
                            break i;
                        }
                    }
                    st = wait(&shared.work, st);
                }
            };
            let loc = inner
                .segment(idx)
                .disk_loc()
                .expect("prefetch of a resident segment");
            // Contain read/parse panics (truncated shard, corrupt bytes):
            // the index must leave `pending` either way, or a visitor
            // waiting on it would hang forever. On failure the index is
            // simply no longer tracked — the visitor falls through to the
            // synchronous path and surfaces the underlying error itself.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner.read_disk(loc, &mut scratch.spill_bytes)
            }));
            let mut st = lock(&shared.state);
            st.pending.remove(&idx);
            if let Ok(batch) = result {
                st.ready.insert(idx, batch);
            }
            drop(st);
            shared.done.notify_all();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Sharded, concurrent out-of-core store: one segment table holds every
/// batch, resident or spilled, built up front or appended while readers
/// run. Spilled batches are laid out across N shard files
/// ([`ShardPlacement`]; `with_shards(1)` is the single-spill-file store),
/// the read path is lock-free positional IO, and an optional prefetch
/// pipeline keeps upcoming batches decoded in the background. Implements
/// [`BatchProvider`].
///
/// Byte accounting is split by origin, and the two halves never overlap:
/// [`memory_bytes`](Self::memory_bytes), [`spilled_bytes`](Self::spilled_bytes)
/// and [`total_bytes`](Self::total_bytes) describe the build-time segments
/// only, while [`appended_bytes`](Self::appended_bytes) and
/// [`appended_batches`](Self::appended_batches) describe the segments
/// landed through [`append_sealed`](Self::append_sealed). A streaming store
/// has no build-time segments, so its `total_bytes()` is 0 and its whole
/// footprint is `appended_bytes()`. The store's encoded footprint is
/// always `total_bytes() + appended_bytes()`, each segment counted once.
pub struct ShardedSpillStore {
    inner: Arc<Inner>,
    prefetcher: Option<Prefetcher>,
    owns_dir: Option<PathBuf>,
    placement: ShardPlacement,
}

/// Pack placement: aim for this many contiguous runs per shard, so every
/// shard still sees multiple visit-order runs (device parallelism) while
/// each run keeps consecutive batches file-adjacent.
const PACK_RUNS_PER_SHARD: usize = 4;

/// Build-time staging shared by [`ShardedSpillStore::build`] and
/// [`ShardedSpillStore::build_from_container`]: batches are encoded in
/// order (shuffle-once semantics) and stay resident while the memory
/// budget lasts; the rest are serialized for the spill, whose layout
/// ([`place_spilled`]) needs every spilled size up front.
#[derive(Default)]
struct Staging {
    /// Every batch in order; `None` marks a spilled one, whose bytes are
    /// the next entry of `spill`.
    batches: Vec<(Option<AnyBatch>, Vec<f64>)>,
    spill: Vec<Vec<u8>>,
    memory_bytes: usize,
}

impl Staging {
    /// Encode one batch and decide memory vs. disk.
    fn push(&mut self, config: &StoreConfig, rows: &DenseMatrix, labels: Vec<f64>) {
        let batch = config.scheme.encode_with(rows, &config.encode);
        let size = batch.size_bytes();
        if self.memory_bytes + size <= config.memory_budget {
            self.memory_bytes += size;
            self.batches.push((Some(batch), labels));
        } else {
            self.spill.push(batch.to_bytes());
            self.batches.push((None, labels));
        }
    }

    /// Open the store and append every staged batch in order: resident
    /// ones straight into the table, spilled ones through the append path
    /// onto the shard [`place_spilled`] picked for them. One shard file
    /// per spilled batch at most, none when nothing spilled.
    fn finish(self, config: &StoreConfig, features: usize) -> std::io::Result<ShardedSpillStore> {
        let n_shards = config.resolved_shards().min(self.spill.len());
        let sizes: Vec<usize> = self.spill.iter().map(Vec::len).collect();
        let assignment = place_spilled(&sizes, n_shards.max(1), config.placement);
        let (files, owns_dir) = create_shards(config, n_shards)?;
        let mut inner = Inner::new(features, config, files, vec![0; n_shards]);
        {
            let mut append = lock(&inner.append);
            let mut spill = self.spill.into_iter().zip(assignment);
            for (batch, labels) in self.batches {
                match batch {
                    Some(b) => {
                        inner.publish(Segment::new(Body::Memory(b), labels));
                    }
                    None => {
                        let (bytes, shard) = spill.next().expect("one spill entry per batch");
                        inner.append_disk(&mut append, shard, &bytes, labels, false)?;
                    }
                }
            }
        }
        for file in &inner.io.files {
            file.sync_all()?;
        }
        let base = inner.sealed.load(Ordering::Relaxed);
        inner.base = base;
        inner.consumed = Mutex::new(base);
        Ok(ShardedSpillStore::start(inner, config, owns_dir))
    }
}

impl ShardedSpillStore {
    /// Encode `x` into mini-batches under `config`, laying everything
    /// past the memory budget out across `config.shards` shard files.
    pub fn build(x: &DenseMatrix, labels: &[f64], config: &StoreConfig) -> std::io::Result<Self> {
        assert_eq!(x.rows(), labels.len());
        config.check_batch_rows()?;
        let mut staging = Staging::default();
        let mut start = 0usize;
        while start < x.rows() {
            let end = (start + config.batch_rows).min(x.rows());
            staging.push(
                config,
                &x.slice_rows(start, end),
                labels[start..end].to_vec(),
            );
            start = end;
        }
        staging.finish(config, x.cols())
    }

    /// Build the store by streaming a v2 `.tocz` container instead of a
    /// materialized dense matrix: segments decode one at a time through
    /// [`crate::io::SeekableContainer`], the last column is split off as
    /// the ±1 label, and rows re-chunk into `config.batch_rows` batches
    /// (with carry-over across segment boundaries), so the resulting
    /// batch boundaries — and therefore training — match
    /// [`ShardedSpillStore::build`] on the decoded matrix exactly. Peak
    /// memory is one decoded segment plus one staged batch, not the
    /// dataset.
    pub fn build_from_container(path: &Path, config: &StoreConfig) -> std::io::Result<Self> {
        config.check_batch_rows()?;
        let inval = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let sc = crate::io::SeekableContainer::open(path).map_err(inval)?;
        let cols = sc.cols();
        if cols < 2 {
            return Err(inval(format!(
                "container has {cols} columns; need features plus a label column"
            )));
        }
        let d = cols - 1;
        let mut staging = Staging::default();
        let mut stage: Vec<f64> = Vec::with_capacity(config.batch_rows * d);
        let mut stage_y: Vec<f64> = Vec::with_capacity(config.batch_rows);
        let mut flush = |stage: &mut Vec<f64>, stage_y: &mut Vec<f64>| {
            if !stage_y.is_empty() {
                let rows = DenseMatrix::from_vec(stage_y.len(), d, std::mem::take(stage));
                staging.push(config, &rows, std::mem::take(stage_y));
            }
        };
        for seg in 0..sc.num_segments() {
            let dense = sc.decode_segment(seg).map_err(inval)?.decode();
            for r in 0..dense.rows() {
                let row = dense.row(r);
                stage.extend_from_slice(&row[..d]);
                stage_y.push(if row[d] >= 0.0 { 1.0 } else { -1.0 });
                if stage_y.len() == config.batch_rows {
                    flush(&mut stage, &mut stage_y);
                }
            }
        }
        flush(&mut stage, &mut stage_y);
        staging.finish(config, d)
    }

    /// Open an *empty* live store for streaming ingestion: the shard
    /// files are created up front and every segment subsequently landed
    /// via [`ShardedSpillStore::append_sealed`] goes straight to disk, so
    /// ingest memory stays bounded by the encoder workspace no matter how
    /// many rows arrive. Trainers, tenant readers and the adaptive
    /// migrator may run concurrently from the first append: each segment
    /// becomes visible atomically once sealed. The prefetch pipeline does
    /// not cover appended segments — their reads take the same charged
    /// synchronous path plain visits use — and a fault plan contributes
    /// its `device_profiles` to the shard devices, its read faults to
    /// every spill read and its write faults to the append path.
    pub fn open_streaming(features: usize, config: &StoreConfig) -> std::io::Result<Self> {
        let n_shards = config.resolved_shards().max(1);
        let (files, owns_dir) = create_shards(config, n_shards)?;
        let inner = Inner::new(features, config, files, vec![0; n_shards]);
        Ok(Self::start(inner, config, owns_dir))
    }

    /// The one open path's tail, shared by every constructor: derive the
    /// prefetch orbit from the build-time segments and start the pipeline
    /// over it.
    fn start(inner: Inner, config: &StoreConfig, owns_dir: Option<PathBuf>) -> Self {
        let order: Vec<usize> = rlock(&inner.segments)[..inner.base]
            .iter()
            .enumerate()
            .filter_map(|(i, seg)| seg.disk_loc().is_some().then_some(i))
            .collect();
        let inner = Arc::new(inner);
        let prefetcher = (config.prefetch > 0 && !order.is_empty())
            .then(|| Prefetcher::start(Arc::clone(&inner), order, config.prefetch));
        Self {
            inner,
            prefetcher,
            owns_dir,
            placement: config.placement,
        }
    }

    /// Append one sealed (already encoded) segment and its labels to the
    /// live store; returns the index the new batch is visible at. Safe to
    /// call while trainers, tenant readers and the adaptive migrator run:
    /// the bytes land at the target shard's append cursor under the same
    /// mutex rebalance holds end to end (cursor bumps never interleave
    /// with migrations), and the batch only becomes visible —
    /// `num_batches()` only grows — after the write completed. Appends
    /// round-robin across the shard files.
    pub fn append_sealed(&self, bytes: &[u8], labels: Vec<f64>) -> std::io::Result<usize> {
        let inner = &self.inner;
        let n_shards = inner.shard_paths.len();
        assert!(
            n_shards > 0,
            "append_sealed needs shard files; open the store with \
             ShardedSpillStore::open_streaming"
        );
        // Backpressure *before* taking the append mutex: a blocked
        // producer must never hold the lock rebalance and stats readers
        // need. The wait is bounded by consumption, not time — the whole
        // point is that ingestion stalls until a visitor drains a sealed
        // segment.
        if inner.max_pending > 0 {
            let t0 = Instant::now();
            let mut consumed = lock(&inner.consumed);
            let mut stalled = false;
            while inner
                .sealed
                .load(Ordering::Acquire)
                .saturating_sub(*consumed)
                >= inner.max_pending
            {
                stalled = true;
                consumed = wait(&inner.consumed_cv, consumed);
            }
            drop(consumed);
            if stalled {
                inner
                    .io
                    .stats
                    .ingest_stall_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        let mut append = lock(&inner.append);
        let shard = (inner.sealed.load(Ordering::Relaxed) - inner.base) % n_shards;
        let idx = inner.append_disk(&mut append, shard, bytes, labels, true)?;
        append.bytes += bytes.len() as u64;
        let pending = (idx + 1).saturating_sub(*lock(&inner.consumed));
        inner.peak_pending.fetch_max(pending, Ordering::Relaxed);
        Ok(idx)
    }

    /// Segments landed through [`ShardedSpillStore::append_sealed`] so
    /// far (they count toward [`BatchProvider::num_batches`] too).
    pub fn appended_batches(&self) -> usize {
        self.inner.sealed.load(Ordering::Acquire) - self.inner.base
    }

    /// Encoded bytes landed through
    /// [`ShardedSpillStore::append_sealed`] so far — never counted in
    /// [`ShardedSpillStore::total_bytes`]. Reads under the append lock, so
    /// the value is never ahead of — or behind — the batches an
    /// [`ShardedSpillStore::appended_snapshot`] pairs it with.
    pub fn appended_bytes(&self) -> u64 {
        lock(&self.inner.append).bytes
    }

    /// Consistent `(appended_batches, appended_bytes)` pair, read under
    /// the append lock: `bytes` is exactly the sum of the first
    /// `batches` appended segments, no matter how many appends race the
    /// snapshot. (The lock-free [`ShardedSpillStore::appended_batches`]
    /// may already be ahead of a just-taken snapshot; it can never be
    /// behind it.)
    pub fn appended_snapshot(&self) -> (usize, u64) {
        let append = lock(&self.inner.append);
        (self.appended_batches(), append.bytes)
    }

    /// Appended segments sealed but not yet consumed by any visitor
    /// (the gauge [`StoreConfig::with_max_pending`] bounds).
    pub fn pending_appends(&self) -> usize {
        self.inner
            .sealed
            .load(Ordering::Acquire)
            .saturating_sub(*lock(&self.inner.consumed))
    }

    /// High-water mark of [`ShardedSpillStore::pending_appends`]
    /// observed at append time.
    pub fn peak_pending_appends(&self) -> usize {
        self.inner.peak_pending.load(Ordering::Relaxed)
    }

    /// Register an exclusive structured appender (what
    /// [`crate::StoreIngest`] holds for its lifetime): `None` while
    /// another token is live, so two ingest drivers can never interleave
    /// chunks into one store unawares. Raw
    /// [`ShardedSpillStore::append_sealed`] calls stay legal without a
    /// token — they serialize on the append mutex.
    pub fn try_acquire_appender(&self) -> Option<AppenderToken<'_>> {
        self.inner
            .appender_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            .then(|| AppenderToken { inner: &self.inner })
    }

    /// Snapshot the streaming-append state for a checkpoint sidecar:
    /// shard file paths and cursors plus every sealed segment's current
    /// extent and labels (post-migration locations — a checkpoint taken
    /// after a rebalance restores the rebalanced layout). Taken under
    /// the append lock, so it can never capture a half-appended
    /// segment. Panics on a store with build-time segments: those are
    /// reproducible from their source and have no business in a crash
    /// checkpoint.
    pub fn streaming_checkpoint(&self) -> StoreCheckpoint {
        let inner = &self.inner;
        assert!(
            inner.base == 0 && !inner.shard_paths.is_empty(),
            "streaming_checkpoint needs a store opened with open_streaming"
        );
        let append = lock(&inner.append);
        let entries = rlock(&inner.segments)
            .iter()
            .map(|seg| {
                let loc = seg.disk_loc().expect("appended segments live on disk");
                CheckpointEntry {
                    shard: loc.shard as u32,
                    offset: loc.offset,
                    len: loc.len as u64,
                    labels: seg.labels.clone(),
                }
            })
            .collect();
        StoreCheckpoint {
            shard_paths: inner.shard_paths.clone(),
            cursors: append.cursors.clone(),
            entries,
        }
    }

    /// Re-open a streaming store from a [`StoreCheckpoint`] after a
    /// crash: the shard files named by the checkpoint are opened in
    /// place (never truncated below the recorded cursors — a file
    /// shorter than its cursor means the checkpoint outran the data and
    /// is rejected), any torn bytes past the cursors are truncated
    /// away, and every checkpointed segment becomes visible again — as
    /// appended segments, like the crashed run's. Appending continues
    /// exactly where the crashed run left off.
    pub fn open_streaming_resume(
        features: usize,
        config: &StoreConfig,
        ckpt: &StoreCheckpoint,
    ) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let n_shards = ckpt.shard_paths.len();
        if n_shards == 0 || ckpt.cursors.len() != n_shards {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "checkpoint has no shards or mismatched cursor count",
            ));
        }
        for (i, e) in ckpt.entries.iter().enumerate() {
            let s = e.shard as usize;
            if s >= n_shards || e.offset + e.len > ckpt.cursors[s] {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("checkpoint entry {i} extends past its shard cursor"),
                ));
            }
        }
        let mut files = Vec::with_capacity(n_shards);
        for (s, (path, &cursor)) in ckpt.shard_paths.iter().zip(&ckpt.cursors).enumerate() {
            let f = OpenOptions::new().write(true).read(true).open(path)?;
            let len = f.metadata()?.len();
            if len < cursor {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "shard {s} is {len} bytes but the checkpoint says {cursor}: \
                         the sidecar outran the data and cannot be resumed from"
                    ),
                ));
            }
            // Drop any torn tail past the checkpointed watermark.
            if len > cursor {
                f.set_len(cursor)?;
            }
            files.push((f, path.clone()));
        }
        let inner = Inner::new(features, config, files, ckpt.cursors.clone());
        for e in &ckpt.entries {
            let loc = DiskLoc {
                shard: e.shard as usize,
                offset: e.offset,
                len: e.len as usize,
            };
            inner.publish(Segment::new(Body::Disk(RwLock::new(loc)), e.labels.clone()));
        }
        lock(&inner.append).bytes = ckpt.encoded_bytes();
        Ok(Self::start(inner, config, None))
    }

    /// `[resident, spilled]` build-time segments as `(count, bytes)`.
    fn build_footprint(&self) -> [(usize, usize); 2] {
        let mut out = [(0, 0); 2];
        for seg in &rlock(&self.inner.segments)[..self.inner.base] {
            let (slot, bytes) = match &seg.body {
                Body::Memory(b) => (0, b.size_bytes()),
                Body::Disk(loc) => (1, rlock(loc).len),
            };
            out[slot].0 += 1;
            out[slot].1 += bytes;
        }
        out
    }

    /// Number of build-time batches kept in memory.
    pub fn in_memory_batches(&self) -> usize {
        self.build_footprint()[0].0
    }

    /// Number of build-time batches on disk (appended segments are
    /// counted by [`ShardedSpillStore::appended_batches`]).
    pub fn spilled_batches(&self) -> usize {
        self.build_footprint()[1].0
    }

    /// Number of shard files backing the spill.
    pub fn num_shards(&self) -> usize {
        self.inner.shard_paths.len()
    }

    /// Bytes of spilled batches currently assigned to each shard (follows
    /// adaptive migrations; superseded copies left behind by
    /// append-and-repoint are not counted).
    pub fn shard_bytes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.inner.shard_paths.len()];
        for loc in rlock(&self.inner.segments)
            .iter()
            .filter_map(|s| s.disk_loc())
        {
            out[loc.shard] += loc.len as u64;
        }
        out
    }

    /// Bytes of build-time batches resident in memory.
    pub fn memory_bytes(&self) -> usize {
        self.build_footprint()[0].1
    }

    /// Bytes of build-time batches on disk.
    pub fn spilled_bytes(&self) -> usize {
        self.build_footprint()[1].1
    }

    /// Encoded footprint of the build-time batches: `memory_bytes() +
    /// spilled_bytes()`. Appended segments are not included — they are
    /// [`ShardedSpillStore::appended_bytes`] — so this is 0 on a store
    /// opened with [`ShardedSpillStore::open_streaming`] (resumed or not).
    pub fn total_bytes(&self) -> usize {
        self.memory_bytes() + self.spilled_bytes()
    }

    /// The scheme this store encodes with.
    pub fn scheme(&self) -> Scheme {
        self.inner.scheme
    }

    /// Cumulative IO statistics.
    pub fn stats(&self) -> &IoStats {
        &self.inner.io.stats
    }

    /// Whether spill reads are charged to simulated devices (only with a
    /// fault plan that carries device profiles).
    pub fn simulates_devices(&self) -> bool {
        !self.inner.io.clocks.is_empty()
    }

    /// Whether the prefetch pipeline is active.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetcher.is_some()
    }

    // -- Crate-private seam for the multi-tenant layer ([`crate::serve`]).
    // Tenant providers read spilled batches directly (cache-miss path)
    // instead of through the prefetch pipeline, so they need the raw
    // pieces `visit` composes: the segment handle (labels, extent, the
    // shared visit/heat counter), the charged device read, the consumed
    // watermark, and the bandwidth profile.

    /// Segment `idx` of the table (below [`BatchProvider::num_batches`]).
    pub(crate) fn segment(&self, idx: usize) -> Arc<Segment> {
        self.inner.segment(idx)
    }

    /// Read the current encoded bytes of a spilled segment through the
    /// charged device model (counts `disk_reads`/`bytes_read`, feeds the
    /// bandwidth profiler). Returns the shard that served the read.
    pub(crate) fn read_spill_bytes(&self, seg: &Segment, buf: &mut Vec<u8>) -> usize {
        let loc = seg
            .disk_loc()
            .expect("read_spill_bytes of a resident segment");
        self.inner
            .io
            .read_range(loc.shard, loc.offset, loc.len, buf)
            .expect("read spill file");
        loc.shard
    }

    /// Parse encoded spill bytes (tenant cache hits and miss reads).
    pub(crate) fn decode_spill(&self, bytes: &[u8]) -> AnyBatch {
        Scheme::from_bytes(bytes).expect("spill data corrupted")
    }

    /// A visitor is done with batch `idx` (see [`StoreConfig::max_pending`]).
    pub(crate) fn mark_consumed(&self, idx: usize) {
        self.inner.mark_consumed(idx);
    }

    /// Per-shard EWMA bandwidth estimate in bytes/sec, when observed.
    pub(crate) fn shard_ewma_bps(&self, shard: usize) -> Option<f64> {
        self.inner
            .io
            .profile
            .estimate_mbps(shard)
            .map(|mbps| mbps * 1e6)
    }

    /// Materialize the spilled batch `idx`, through the prefetch pipeline
    /// when one is running and its orbit covers `idx`.
    fn fetch(&self, idx: usize, loc: DiskLoc) -> AnyBatch {
        let orbit = |pf: &&Prefetcher| pf.order.binary_search(&idx).is_ok();
        let Some(pf) = self.prefetcher.as_ref().filter(orbit) else {
            return self.inner.read_disk_sync(loc);
        };
        let stats = &self.inner.io.stats;
        stats.spill_requests.fetch_add(1, Ordering::Relaxed);
        let mut st = lock(&pf.shared.state);
        // Schedule the lookahead window first so the pipeline overlaps
        // the next batches with whatever this visit does.
        pf.schedule_lookahead(&mut st, idx);
        pf.shared.work.notify_all();
        loop {
            if let Some(b) = st.ready.remove(&idx) {
                drop(st);
                stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                // A decoded slot was released: let backpressured workers
                // run.
                pf.shared.work.notify_all();
                return b;
            }
            if st.pending.contains(&idx) {
                // A worker is reading it: its IO overlaps our wait, still
                // a hit.
                st = wait(&pf.shared.done, st);
                continue;
            }
            // Not scheduled (or still queued): claim it and read inline.
            if let Some(pos) = st.queue.iter().position(|&q| q == idx) {
                st.queue.remove(pos);
            }
            drop(st);
            stats.prefetch_misses.fetch_add(1, Ordering::Relaxed);
            return self.inner.read_disk_sync(loc);
        }
    }

    /// Current placement state: policy, prefetch workers, rebalance and
    /// migration counters, per-shard EWMA bandwidth estimates and the
    /// bytes currently assigned to each shard.
    pub fn placement_report(&self) -> PlacementReport {
        let ps = &self.inner.placement_stats;
        PlacementReport {
            policy: self.placement,
            decode_workers: self.prefetcher.as_ref().map_or(0, |p| p.workers.len()),
            rebalances: ps.rebalances.load(Ordering::Relaxed),
            migrated_batches: ps.migrated_batches.load(Ordering::Relaxed),
            migrated_bytes: ps.migrated_bytes.load(Ordering::Relaxed),
            shard_ewma_mbps: self.inner.io.profile.snapshot_mbps(),
            shard_bytes: self.shard_bytes(),
        }
    }

    /// Re-plan the adaptive placement from the observed per-shard
    /// bandwidth EWMAs and the per-batch visit counts, then migrate every
    /// batch whose planned shard is meaningfully faster than its current
    /// one ([`REBALANCE_HYSTERESIS`]). Returns the number of batches
    /// migrated.
    ///
    /// Migration is append-and-repoint: the batch's bytes are copied to
    /// the end of the target shard file and the segment repointed, so
    /// reads already in flight against the old location still return
    /// the right bytes — the pipeline never has to drain. Skipped until
    /// every shard has at least one profiler observation (there is
    /// nothing measured to plan by before that).
    pub fn rebalance(&self) -> usize {
        let inner = &self.inner;
        let n_shards = inner.shard_paths.len();
        if n_shards < 2 {
            return 0;
        }
        if (0..n_shards).any(|s| inner.io.profile.samples(s) == 0) {
            return 0;
        }
        // The append lock doubles as the placement mutation lock: one
        // rebalance at a time, append offsets stay consistent, and no
        // segment can seal mid-pass, so the snapshot is consistent.
        let mut append = lock(&inner.append);
        inner
            .placement_stats
            .rebalances
            .fetch_add(1, Ordering::Relaxed);
        let bw: Vec<f64> = (0..n_shards)
            .map(|s| inner.io.profile.estimate_mbps(s).unwrap_or(1.0))
            .collect();
        // The plan covers every spilled segment, in batch-index order.
        let spilled: Vec<Arc<Segment>> = rlock(&inner.segments)
            .iter()
            .filter(|seg| seg.disk_loc().is_some())
            .cloned()
            .collect();
        let locs: Vec<DiskLoc> = spilled.iter().filter_map(|s| s.disk_loc()).collect();
        let sizes: Vec<usize> = locs.iter().map(|l| l.len).collect();
        let hot: Vec<u64> = spilled
            .iter()
            .map(|s| s.visits.load(Ordering::Relaxed))
            .collect();
        let capacity = vec![u64::MAX; n_shards];
        let plan = plan_adaptive(&sizes, &hot, &bw, &capacity);
        let mut moved = 0usize;
        let mut moved_bytes = 0u64;
        let mut buf = Vec::new();
        for ((&target, loc), seg) in plan.iter().zip(&locs).zip(&spilled) {
            if target == loc.shard || bw[target] < REBALANCE_HYSTERESIS * bw[loc.shard] {
                continue;
            }
            // Copy through the charged read path (migration pays the
            // source device's bandwidth and shows up in IoStats), then
            // append to the target shard and repoint.
            if inner
                .io
                .read_range(loc.shard, loc.offset, loc.len, &mut buf)
                .is_err()
            {
                continue; // keep the old location; the visit path surfaces IO errors
            }
            let offset = append.cursors[target];
            if inner.io.files[target].write_all_at(&buf, offset).is_err() {
                continue;
            }
            append.cursors[target] += loc.len as u64;
            if let Body::Disk(current) = &seg.body {
                *wlock(current) = DiskLoc {
                    shard: target,
                    offset,
                    len: loc.len,
                };
            }
            moved += 1;
            moved_bytes += loc.len as u64;
        }
        inner
            .placement_stats
            .migrated_batches
            .fetch_add(moved as u64, Ordering::Relaxed);
        inner
            .placement_stats
            .migrated_bytes
            .fetch_add(moved_bytes, Ordering::Relaxed);
        moved
    }
}

/// A migration must buy at least this bandwidth ratio between the target
/// and the current shard, or the batch stays put. Keeps statistically
/// flat profiles (every shard within noise of each other) from shuffling
/// batches every epoch for nothing.
pub const REBALANCE_HYSTERESIS: f64 = 1.25;

/// Snapshot of the placement state
/// ([`ShardedSpillStore::placement_report`]; the CLI prints it as the
/// machine-parseable `placement:` line).
#[derive(Clone, Debug)]
pub struct PlacementReport {
    pub policy: ShardPlacement,
    /// Prefetch workers reading and decoding (0 when prefetch is off).
    pub decode_workers: usize,
    /// Adaptive rebalance passes that had profiler signal to plan with.
    pub rebalances: u64,
    /// Batches the adaptive planner migrated to a different shard.
    pub migrated_batches: u64,
    /// Bytes those migrations copied.
    pub migrated_bytes: u64,
    /// Per-shard EWMA bandwidth estimates in MB/s (0.0 = never observed).
    pub shard_ewma_mbps: Vec<f64>,
    /// Bytes of spilled batches currently assigned to each shard.
    pub shard_bytes: Vec<u64>,
}

/// Decide which shard each spilled batch (in visit order) lands on at
/// build time. `Adaptive` starts from the `Pack` layout (file-adjacent
/// runs from epoch one) and diverges only once
/// the runtime profiler has measured the shards
/// ([`ShardedSpillStore::rebalance`]).
pub fn place_spilled(sizes: &[usize], n_shards: usize, placement: ShardPlacement) -> Vec<usize> {
    match placement {
        ShardPlacement::Stripe => (0..sizes.len()).map(|i| i % n_shards).collect(),
        ShardPlacement::Pack | ShardPlacement::Adaptive => {
            let total: usize = sizes.iter().sum();
            // A run must hold at least a couple of batches for adjacency
            // to buy anything, but never so many that a shard ends up
            // with no run at all. The byte target alone cannot guarantee
            // the latter under skew (one huge batch closes a run while
            // the tiny remainder never reaches the target again), so runs
            // are additionally capped at ⌊batches/shards⌋ batches — that
            // forces at least `n_shards` runs, and runs round-robin.
            let avg = total.div_ceil(sizes.len().max(1));
            let lo = (total / n_shards / PACK_RUNS_PER_SHARD).max(1);
            let hi = (total / n_shards).max(1);
            let run_target = (2 * avg).clamp(lo, hi.max(lo));
            let max_run_batches = (sizes.len() / n_shards).max(1);
            let mut shard = 0usize;
            let mut run_bytes = 0usize;
            let mut run_batches = 0usize;
            let mut out = Vec::with_capacity(sizes.len());
            for &sz in sizes {
                out.push(shard);
                run_bytes += sz;
                run_batches += 1;
                if run_bytes >= run_target || run_batches >= max_run_batches {
                    shard = (shard + 1) % n_shards;
                    run_bytes = 0;
                    run_batches = 0;
                }
            }
            out
        }
    }
}

/// The adaptive placement plan: assign every spilled batch to a shard so
/// the estimated epoch completion time is minimized on heterogeneous
/// devices. Batches are ranked hottest first (visit count descending,
/// index ascending for determinism) and greedily placed on the shard with
/// the smallest projected finish time `(assigned_bytes + size) / mbps`
/// whose byte `capacity` the batch still fits — LPT scheduling onto
/// machines with speeds, which packs hot bytes onto fast shards in
/// proportion to measured bandwidth. When no shard has capacity left the
/// batch falls back to the least-loaded-by-time shard, so every batch is
/// always assigned exactly once.
///
/// Pure and deterministic: same inputs, same plan. `sizes`, `hotness` and
/// the returned assignment are indexed by spilled-batch id; `mbps` and
/// `capacity` by shard. Non-finite or non-positive speeds are treated as
/// a tiny positive speed so a never-measured shard never divides by zero.
pub fn plan_adaptive(
    sizes: &[usize],
    hotness: &[u64],
    mbps: &[f64],
    capacity: &[u64],
) -> Vec<usize> {
    assert_eq!(sizes.len(), hotness.len(), "one hotness count per batch");
    assert_eq!(mbps.len(), capacity.len(), "one capacity per shard");
    let n_shards = mbps.len();
    assert!(n_shards > 0, "need at least one shard");
    let speed: Vec<f64> = mbps
        .iter()
        .map(|&m| if m.is_finite() && m > 0.0 { m } else { 1e-6 })
        .collect();
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(hotness[i]), i));
    let mut load = vec![0u64; n_shards];
    let mut out = vec![0usize; sizes.len()];
    for i in order {
        let sz = sizes[i] as u64;
        let finish = |s: usize| (load[s] + sz) as f64 / speed[s];
        let mut best: Option<usize> = None;
        for s in 0..n_shards {
            if load[s] + sz > capacity[s] {
                continue;
            }
            if best.is_none_or(|b| finish(s) < finish(b)) {
                best = Some(s);
            }
        }
        // Capacity exhausted everywhere: least projected finish time wins
        // (coverage beats the capacity hint — every batch must land).
        let s = best.unwrap_or_else(|| {
            (0..n_shards)
                .min_by(|&a, &b| finish(a).total_cmp(&finish(b)))
                .unwrap()
        });
        load[s] += sz;
        out[i] = s;
    }
    out
}

impl BatchProvider for ShardedSpillStore {
    fn num_batches(&self) -> usize {
        // Grows while streaming ingest appends. `Acquire` pairs with the
        // seal's `Release` so an index this returns always resolves to
        // fully-written bytes.
        self.inner.sealed.load(Ordering::Acquire)
    }

    fn num_features(&self) -> usize {
        self.inner.features
    }

    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
        let seg = self.inner.segment(idx);
        match &seg.body {
            Body::Memory(b) => f(b, &seg.labels),
            Body::Disk(loc) => {
                // Hotness signal for the adaptive planner.
                seg.record_visit();
                let loc = *rlock(loc);
                let b = self.fetch(idx, loc);
                f(&b, &seg.labels);
                // Only after the visitor is done with the batch.
                self.inner.mark_consumed(idx);
            }
        }
    }

    /// Epoch-boundary feedback from the trainer: the adaptive planner
    /// re-packs hot batches onto the shards measured fastest.
    fn end_epoch(&self) {
        if self.placement == ShardPlacement::Adaptive {
            self.rebalance();
        }
    }
}

impl Drop for ShardedSpillStore {
    fn drop(&mut self) {
        // Stop the workers before unlinking their files.
        self.prefetcher = None;
        // With the prefetcher gone, ours is the only
        // strong ref to Inner and its IoShards left, so the shard files
        // can be closed before the unlink — the portable (non-unix) path
        // cannot delete a file that is still open. Best-effort: if the
        // ref count is unexpectedly higher we skip closing (unix unlinks
        // open files fine).
        if let Some(inner) = Arc::get_mut(&mut self.inner) {
            inner.io = Arc::new(IoShards::new(Vec::new(), None));
        }
        for path in &self.inner.shard_paths {
            let _ = fs::remove_file(path);
        }
        if let Some(d) = &self.owns_dir {
            let _ = fs::remove_dir(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_preset, DatasetPreset};
    use std::time::{Duration, Instant};

    fn dataset() -> (DenseMatrix, Vec<f64>) {
        let ds = generate_preset(DatasetPreset::CensusLike, 600, 21);
        (ds.x, ds.labels)
    }

    /// A fault plan that only simulates stable devices at `mbps`.
    fn stable_devices(mbps: &[f64]) -> crate::testing::FaultPlan {
        use crate::testing::{DeviceProfile, FaultPlan};
        FaultPlan::device(mbps.iter().map(|&m| DeviceProfile::stable(m)).collect())
    }

    /// The single-spill-file configuration.
    fn one_shard(x: &DenseMatrix, y: &[f64], config: StoreConfig) -> ShardedSpillStore {
        ShardedSpillStore::build(x, y, &config.with_shards(1)).unwrap()
    }

    #[test]
    fn everything_fits_with_big_budget() {
        let (x, y) = dataset();
        let store = one_shard(&x, &y, StoreConfig::new(Scheme::Toc, 100, usize::MAX));
        assert_eq!(store.num_batches(), 6);
        assert_eq!(store.spilled_batches(), 0);
        assert_eq!(store.stats().disk_reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_budget_spills_everything_and_roundtrips() {
        let (x, y) = dataset();
        for scheme in [Scheme::Toc, Scheme::Den, Scheme::Gzip, Scheme::Cla] {
            let store = one_shard(&x, &y, StoreConfig::new(scheme, 150, 0));
            assert_eq!(store.spilled_batches(), 4, "{}", scheme.name());
            // Visiting a spilled batch does real IO and returns the exact
            // batch content.
            store.visit(2, &mut |b, labels| {
                assert_eq!(b.decode(), x.slice_rows(300, 450));
                assert_eq!(labels, &y[300..450]);
            });
            assert!(store.stats().disk_reads.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn partial_budget_splits_memory_and_disk() {
        let (x, y) = dataset();
        let probe = one_shard(&x, &y, StoreConfig::new(Scheme::Csr, 100, usize::MAX));
        let half = probe.memory_bytes() / 2;
        let store = one_shard(&x, &y, StoreConfig::new(Scheme::Csr, 100, half));
        assert!(store.in_memory_batches() >= 1);
        assert!(store.spilled_batches() >= 1);
        assert_eq!(store.in_memory_batches() + store.spilled_batches(), 6);
        // All batches still decode correctly.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
    }

    #[test]
    fn toc_fits_where_den_spills() {
        // The crux of Table 6: pick a budget between the TOC footprint and
        // the DEN footprint.
        let (x, y) = dataset();
        let toc_total =
            one_shard(&x, &y, StoreConfig::new(Scheme::Toc, 250, usize::MAX)).total_bytes();
        let budget = toc_total * 2;
        let toc = one_shard(&x, &y, StoreConfig::new(Scheme::Toc, 250, budget));
        let den = one_shard(&x, &y, StoreConfig::new(Scheme::Den, 250, budget));
        assert_eq!(toc.spilled_batches(), 0);
        assert!(den.spilled_batches() > 0);
    }

    #[test]
    fn trainer_runs_over_spilled_store() {
        use toc_ml::mgd::{MgdConfig, ModelSpec, Trainer};
        use toc_ml::LossKind;
        let (x, y) = dataset();
        let store = one_shard(&x, &y, StoreConfig::new(Scheme::Toc, 100, 0));
        let trainer = Trainer::new(MgdConfig {
            epochs: 8,
            lr: 0.3,
            ..Default::default()
        });
        let mut report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &store, None);
        let eval = Scheme::Den.encode(&x);
        let err = report.model.error_rate(&eval, &y);
        assert!(err < 0.25, "error {err}");
        assert!(store.stats().disk_reads.load(Ordering::Relaxed) >= 8 * 6);
    }

    /// A zero batch size is rejected up front: the batching loops would
    /// never advance past the first row.
    #[test]
    fn zero_batch_rows_is_invalid_input() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 0, 0).with_shards(1);
        let err = ShardedSpillStore::build(&x, &y, &config)
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let tocz = std::env::temp_dir().join(format!("toc-zero-rows-{}.tocz", std::process::id()));
        let err = ShardedSpillStore::build_from_container(&tocz, &config)
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let (x, y) = dataset();
        let store = one_shard(&x, &y, StoreConfig::new(Scheme::Den, 200, 0));
        assert_eq!(store.num_shards(), 1);
        let path = store.inner.shard_paths[0].clone();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    /// Every segment's encoded bytes, each counted once: resident batch
    /// sizes plus spilled extents, over the whole table.
    fn table_bytes(store: &ShardedSpillStore) -> u64 {
        rlock(&store.inner.segments)
            .iter()
            .map(|seg| match &seg.body {
                Body::Memory(b) => b.size_bytes() as u64,
                Body::Disk(loc) => rlock(loc).len as u64,
            })
            .sum()
    }

    /// `total_bytes()` covers build-time segments and `appended_bytes()`
    /// appended ones, so their sum is the store's whole encoded footprint
    /// with nothing counted twice — on a built store (resident + spilled),
    /// a streaming store (all appended) and a resumed one (re-registered
    /// as appended). The end-to-end benchmark's compression ratio divides
    /// by exactly this sum.
    #[test]
    fn build_and_append_byte_accounting_never_overlaps() {
        let (x, y) = dataset();
        let probe = one_shard(&x, &y, StoreConfig::new(Scheme::Csr, 100, usize::MAX));
        let budget = probe.memory_bytes() / 2;
        let built = ShardedSpillStore::build(
            &x,
            &y,
            &StoreConfig::new(Scheme::Csr, 100, budget).with_shards(2),
        )
        .unwrap();
        let footprint = |s: &ShardedSpillStore| s.total_bytes() as u64 + s.appended_bytes();
        assert!(built.in_memory_batches() >= 1 && built.spilled_batches() >= 1);
        assert_eq!(built.appended_bytes(), 0);
        assert_eq!(footprint(&built), table_bytes(&built));

        let config = StoreConfig::new(Scheme::Csr, 100, 0).with_shards(2);
        let streaming = ShardedSpillStore::open_streaming(x.cols(), &config).unwrap();
        for i in 0..6 {
            let bytes = Scheme::Csr
                .encode(&x.slice_rows(i * 100, (i + 1) * 100))
                .to_bytes();
            streaming
                .append_sealed(&bytes, y[i * 100..(i + 1) * 100].to_vec())
                .unwrap();
        }
        assert_eq!(streaming.total_bytes(), 0);
        assert_eq!(streaming.appended_batches(), 6);
        assert_eq!(footprint(&streaming), table_bytes(&streaming));

        let ckpt = streaming.streaming_checkpoint();
        let resumed = ShardedSpillStore::open_streaming_resume(x.cols(), &config, &ckpt).unwrap();
        assert_eq!(resumed.total_bytes(), 0);
        assert_eq!(resumed.appended_batches(), 6);
        assert_eq!(resumed.appended_bytes(), streaming.appended_bytes());
        assert_eq!(footprint(&resumed), table_bytes(&resumed));
    }

    #[test]
    fn sharded_store_stripes_across_shard_files() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, 0).with_shards(3);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.num_batches(), 6);
        assert_eq!(store.spilled_batches(), 6);
        assert_eq!(store.num_shards(), 3);
        // Round-robin striping: every shard holds some bytes.
        let per_shard = store.shard_bytes();
        assert_eq!(per_shard.len(), 3);
        assert!(per_shard.iter().all(|&b| b > 0), "{per_shard:?}");
        assert_eq!(per_shard.iter().sum::<u64>(), store.spilled_bytes() as u64);
        // Shard paths exist while the store lives and are removed on drop.
        let paths = store.inner.shard_paths.clone();
        assert!(paths.iter().all(|p| p.exists()));
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, labels| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
                assert_eq!(labels, &y[i * 100..(i + 1) * 100]);
            });
        }
        drop(store);
        assert!(paths.iter().all(|p| !p.exists()));
    }

    #[test]
    fn pack_placement_keeps_consecutive_batches_file_adjacent() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, 0)
            .with_shards(2)
            .with_placement(ShardPlacement::Pack);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.spilled_batches(), 6);
        // Within a run, consecutive visit-order batches are back to back
        // in the same shard file.
        let locs: Vec<DiskLoc> = (0..6)
            .map(|i| store.inner.segment(i).disk_loc().unwrap())
            .collect();
        let mut adjacent_pairs = 0;
        for w in locs.windows(2) {
            if w[0].shard == w[1].shard {
                assert_eq!(
                    w[1].offset,
                    w[0].offset + w[0].len as u64,
                    "same-shard consecutive batches must be adjacent"
                );
                adjacent_pairs += 1;
            }
        }
        assert!(adjacent_pairs >= 1, "pack produced no adjacency: {locs:?}");
        // Still byte-exact.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        // Every spilled byte landed somewhere.
        assert_eq!(
            store.shard_bytes().iter().sum::<u64>(),
            store.spilled_bytes() as u64
        );
    }

    #[test]
    fn sharded_partial_budget_matches_flat_layout() {
        let (x, y) = dataset();
        let probe = one_shard(&x, &y, StoreConfig::new(Scheme::Csr, 100, usize::MAX));
        let budget = probe.memory_bytes() / 2;
        let config = StoreConfig::new(Scheme::Csr, 100, budget).with_shards(2);
        let flat = one_shard(&x, &y, StoreConfig::new(Scheme::Csr, 100, budget));
        let sharded = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(flat.in_memory_batches(), sharded.in_memory_batches());
        assert_eq!(flat.spilled_batches(), sharded.spilled_batches());
        assert_eq!(flat.total_bytes(), sharded.total_bytes());
    }

    #[test]
    fn prefetch_pipeline_serves_decoded_batches() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, 0)
            .with_shards(2)
            .with_prefetch(3);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert!(store.prefetch_enabled());
        // Each visit keeps the lookahead window ahead of it scheduled
        // (whether the visit itself was a hit or a claimed miss). Before
        // visiting batches 1–3, wait — bounded, polling the pipeline
        // state rather than sleeping a fixed amount — until the workers
        // have decoded that batch; the visit must then be served from the
        // pipeline regardless of how threads were scheduled.
        store.visit(0, &mut |b, _| {
            assert_eq!(b.decode(), x.slice_rows(0, 100));
        });
        let before = store.stats().snapshot();
        let pf = store.prefetcher.as_ref().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 1..=3 {
            loop {
                {
                    let st = lock(&pf.shared.state);
                    if st.ready.contains_key(&i) {
                        break;
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "prefetch workers stalled on batch {i}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        let after = store.stats().snapshot();
        assert_eq!(after.prefetch_hits - before.prefetch_hits, 3, "{after:?}");
        // Finish the sweep: every spilled visit is accounted as exactly
        // one hit or miss, and every visit consumed exactly one read; at
        // most a lookahead window of reads stays unconsumed.
        for i in 4..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        let s = store.stats().snapshot();
        let visits = store.num_batches() as u64;
        assert_eq!(s.prefetch_hits + s.prefetch_misses, visits);
        assert_eq!(s.spill_requests, visits);
        assert!(s.disk_reads >= visits);
        assert!(
            s.disk_reads <= visits + 2 * 3 + MAX_PREFETCH_WORKERS as u64,
            "{s:?}"
        );
    }

    #[test]
    fn bandwidth_throttle_accounts_per_shard() {
        use crate::testing::{DeviceProfile, FaultPlan};
        let (x, y) = dataset();
        let mbps = 400.0;
        let plan = FaultPlan::device(vec![DeviceProfile::stable(mbps)]);
        let throttle_ns = Arc::clone(&plan.stats.throttle_ns);
        let config = StoreConfig::new(Scheme::Den, 150, 0)
            .with_shards(2)
            .with_fault_plan(plan);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert!(store.simulates_devices());
        let t0 = Instant::now();
        for i in 0..store.num_batches() {
            store.visit(i, &mut |_, _| {});
        }
        let elapsed = t0.elapsed();
        // The accounted delay is deterministic: sum of len/mbps per read.
        let expected: u64 = (0..store.num_batches())
            .map(|i| {
                let loc = store.inner.segment(i).disk_loc().expect("spilled");
                (loc.len as f64 / (mbps * 1e6) * 1e9) as u64
            })
            .sum();
        assert_eq!(throttle_ns.load(Ordering::Relaxed), expected);
        // A sequential sweep really slept for (at least) the simulated time
        // of the slowest shard.
        let slowest_shard_ns = store
            .shard_bytes()
            .iter()
            .map(|&b| (b as f64 / (mbps * 1e6) * 1e9) as u64)
            .max()
            .unwrap();
        assert!(elapsed >= Duration::from_nanos(slowest_shard_ns));
    }

    #[test]
    fn truncated_shard_fails_loudly_instead_of_hanging() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Den, 100, 0)
            .with_shards(2)
            .with_prefetch(2);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        // Truncate every shard behind the store's back. The prefetch seed
        // window only covers the first batches, so batch 4 is guaranteed
        // to be read after the truncation — by the pipeline (whose failure
        // must be contained and must not strand the index in `pending`)
        // or by the visitor's synchronous path. Either way the visit must
        // surface the IO failure instead of waiting forever.
        for path in &store.inner.shard_paths {
            OpenOptions::new()
                .write(true)
                .truncate(true)
                .open(path)
                .unwrap();
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.visit(4, &mut |_, _| {});
        }));
        assert!(result.is_err(), "visit over a truncated shard must fail");
    }

    #[test]
    fn in_memory_sharded_store_has_no_shards() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, usize::MAX)
            .with_shards(4)
            .with_prefetch(2);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.num_shards(), 0);
        assert!(!store.prefetch_enabled());
        assert_eq!(store.spilled_batches(), 0);
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        assert_eq!(store.stats().snapshot(), IoSnapshot::default());
    }

    #[test]
    fn place_spilled_policies() {
        // Stripe: round robin regardless of size.
        assert_eq!(
            place_spilled(&[10, 10, 10, 10], 2, ShardPlacement::Stripe),
            vec![0, 1, 0, 1]
        );
        // Pack: equal sizes, 2 shards, 8 batches → run target 2·avg=20,
        // so pairs of consecutive batches stay file-adjacent.
        assert_eq!(
            place_spilled(&[10; 8], 2, ShardPlacement::Pack),
            vec![0, 0, 1, 1, 0, 0, 1, 1]
        );
        // Pack with small batches: several consecutive batches share a
        // run before it closes.
        let a = place_spilled(&[1; 80], 2, ShardPlacement::Pack);
        assert_eq!(a.len(), 80);
        // run target = 80/2/4 = 10 → runs of 10 consecutive batches.
        assert_eq!(&a[..10], &[0; 10]);
        assert_eq!(&a[10..20], &[1; 10]);
        // Bytes balance across shards.
        assert_eq!(a.iter().filter(|&&s| s == 0).count(), 40);
        // Skewed sizes: one huge batch must not starve later shards — the
        // batch-count run cap guarantees every shard still gets a run.
        let a = place_spilled(&[1000, 1, 1, 1], 4, ShardPlacement::Pack);
        assert_eq!(a, vec![0, 1, 2, 3]);
        for n_shards in 1..=4 {
            for sizes in [&[7usize, 900, 3, 3, 3, 900, 1][..], &[5; 9][..]] {
                let a = place_spilled(sizes, n_shards, ShardPlacement::Pack);
                for s in 0..n_shards {
                    assert!(a.contains(&s), "shard {s} empty: {a:?} ({sizes:?})");
                }
            }
        }
        // Adaptive starts from the pack layout.
        assert_eq!(
            place_spilled(&[10; 8], 2, ShardPlacement::Adaptive),
            place_spilled(&[10; 8], 2, ShardPlacement::Pack)
        );
    }

    #[test]
    fn plan_adaptive_packs_hot_bytes_onto_fast_shards() {
        // Equal sizes, flat hotness: load splits roughly proportional to
        // measured speed (400 of 500 MB/s → ~80% of batches on shard 0).
        let sizes = vec![10usize; 100];
        let hot = vec![1u64; 100];
        let bw = [400.0, 50.0, 50.0];
        let caps = [u64::MAX; 3];
        let plan = plan_adaptive(&sizes, &hot, &bw, &caps);
        assert_eq!(plan.len(), 100);
        assert!(plan.iter().all(|&s| s < 3));
        let on_fast = plan.iter().filter(|&&s| s == 0).count();
        assert!((70..=90).contains(&on_fast), "{on_fast}");
        // Deterministic: same inputs, same plan.
        assert_eq!(plan, plan_adaptive(&sizes, &hot, &bw, &caps));
        // The hottest batch lands on the fastest shard.
        let plan2 = plan_adaptive(&[5; 4], &[0, 0, 9, 0], &[100.0, 1.0], &[u64::MAX; 2]);
        assert_eq!(plan2[2], 0);
        // Capacity respected: the fast shard only has room for one batch,
        // so the other overflows to the slow one despite the speed gap.
        let plan3 = plan_adaptive(&[10, 10], &[1, 1], &[1000.0, 1.0], &[10, 100]);
        assert_eq!(plan3.iter().filter(|&&s| s == 0).count(), 1);
        // Infeasible capacity still assigns every batch (coverage wins).
        let plan4 = plan_adaptive(&[10, 10], &[1, 1], &[1.0, 1.0], &[0, 0]);
        assert_eq!(plan4.len(), 2);
        // Degenerate speeds must not divide by zero.
        let _ = plan_adaptive(&[1], &[0], &[0.0], &[u64::MAX]);
    }

    #[test]
    fn adaptive_rebalance_migrates_to_fast_shard_and_stays_byte_identical() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Den, 100, 0)
            .with_shards(2)
            .with_placement(ShardPlacement::Adaptive)
            .with_fault_plan(stable_devices(&[2000.0, 10.0]));
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.spilled_batches(), 6);
        let initial = store.shard_bytes();
        assert!(initial.iter().all(|&b| b > 0), "{initial:?}");
        // Before any observation a rebalance has no signal and must no-op.
        assert_eq!(store.rebalance(), 0);
        assert_eq!(store.placement_report().rebalances, 0);
        // Epoch 1 observes both shards; the boundary rebalance must pull
        // (nearly) everything onto the 200×-faster shard 0.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |_, _| {});
        }
        store.end_epoch();
        let rep = store.placement_report();
        assert_eq!(rep.policy, ShardPlacement::Adaptive);
        assert_eq!(rep.rebalances, 1);
        assert!(rep.migrated_batches >= 1, "{rep:?}");
        assert!(rep.migrated_bytes >= 1, "{rep:?}");
        assert!(rep.shard_ewma_mbps[0] > rep.shard_ewma_mbps[1], "{rep:?}");
        assert!(rep.shard_bytes[0] > rep.shard_bytes[1], "{rep:?}");
        assert_eq!(
            rep.shard_bytes.iter().sum::<u64>(),
            store.spilled_bytes() as u64
        );
        // Migration never changes a byte: every batch still decodes to
        // exactly its source rows.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, labels| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
                assert_eq!(labels, &y[i * 100..(i + 1) * 100]);
            });
        }
        // A second epoch over the settled layout stays settled (the plan
        // is deterministic and the hysteresis kills noise moves).
        store.end_epoch();
        let again = store.placement_report();
        assert_eq!(again.migrated_batches, rep.migrated_batches);
    }

    #[test]
    fn non_adaptive_placements_never_rebalance_on_end_epoch() {
        let (x, y) = dataset();
        for placement in [ShardPlacement::Stripe, ShardPlacement::Pack] {
            let config = StoreConfig::new(Scheme::Toc, 100, 0)
                .with_shards(2)
                .with_placement(placement)
                .with_fault_plan(stable_devices(&[2000.0, 10.0]));
            let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
            for i in 0..store.num_batches() {
                store.visit(i, &mut |_, _| {});
            }
            store.end_epoch();
            let rep = store.placement_report();
            assert_eq!(rep.rebalances, 0, "{placement}");
            assert_eq!(rep.migrated_batches, 0, "{placement}");
        }
    }
}
