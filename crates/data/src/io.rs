//! The spill read path.
//!
//! Every spilled batch the store reads — prefetch workers, visitor
//! misses, tenant cache misses — goes through one function,
//! `IoShards::read_range`: a positional `pread` of the batch's extent in
//! its shard file, then one accounting step that bumps the [`IoStats`]
//! counters, records the read's latency and feeds the per-shard
//! bandwidth EWMA that the tenant cache's heat and QoS throttle read.
//! Nothing on this path sleeps unless the store carries a
//! [`crate::testing::FaultPlan`]: its faults then wrap the read, and its
//! simulated devices are charged between the `pread` and the latency
//! observation, so the profiler sees the simulated delay.
//!
//! [`SeekableContainer`] reads v2 `.tocz` segments through the same
//! positional-read seam.

use crate::testing::{BandwidthClock, FaultPlan};
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};
use toc_formats::MatrixBatch;
use toc_linalg::DenseMatrix;

/// Recover a poisoned guard: a panicking holder never leaves the plain
/// state behind these locks invalid.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn rlock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wlock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// The positional-read seam.

/// A spill file readable at arbitrary offsets by any number of threads.
///
/// On unix the read path is positional (`pread` via
/// `std::os::unix::fs::FileExt::read_exact_at`): no seek, no lock, no
/// shared cursor. Elsewhere a portable fallback serializes seek+read
/// pairs behind a mutex.
#[derive(Debug)]
pub(crate) struct SpillFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl SpillFile {
    pub(crate) fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            Self { file }
        }
        #[cfg(not(unix))]
        {
            Self {
                file: Mutex::new(file),
            }
        }
    }

    /// Read exactly `buf.len()` bytes at `offset`.
    pub(crate) fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = lock(&self.file);
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }

    /// Write all of `buf` at `offset` (the spill append path).
    pub(crate) fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = lock(&self.file);
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(buf)
        }
    }

    /// Flush written data to the device (`fsync`).
    pub(crate) fn sync_all(&self) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            self.file.sync_all()
        }
        #[cfg(not(unix))]
        {
            lock(&self.file).sync_all()
        }
    }
}

/// EWMA smoothing factor for [`BandwidthProfile`]: heavy enough that a
/// device going slow mid-run shows up within a handful of reads, light
/// enough that one queueing hiccup doesn't swing the estimate.
const PROFILE_ALPHA: f64 = 0.25;

/// Runtime per-shard bandwidth estimates: every physical read charges its
/// observed throughput (bytes over wall time, *including* the simulated
/// bandwidth-clock delay and any queueing behind other readers of the
/// same device) into a per-shard EWMA. The tenant cache weighs a batch's
/// heat by it and the QoS throttle apportions it ([`crate::serve`]);
/// the CLI prints it on the `shards:` line.
#[derive(Debug, Default)]
pub(crate) struct BandwidthProfile {
    /// Per-shard `(ewma bytes/sec as f64 bits, sample count)`.
    cells: Vec<(AtomicU64, AtomicU64)>,
}

impl BandwidthProfile {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            cells: (0..shards)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Charge one observed read of `len` bytes that took `elapsed`.
    pub(crate) fn observe(&self, shard: usize, len: usize, elapsed: Duration) {
        let Some((ewma, samples)) = self.cells.get(shard) else {
            return;
        };
        let bps = len as f64 / elapsed.as_secs_f64().max(1e-9);
        let mut cur = ewma.load(Ordering::Relaxed);
        loop {
            let next = if samples.load(Ordering::Relaxed) == 0 {
                bps
            } else {
                PROFILE_ALPHA * bps + (1.0 - PROFILE_ALPHA) * f64::from_bits(cur)
            };
            match ewma.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Estimated bandwidth of `shard` in MB/s; `None` until the shard has
    /// been observed at least once.
    pub(crate) fn estimate_mbps(&self, shard: usize) -> Option<f64> {
        let (ewma, samples) = self.cells.get(shard)?;
        if samples.load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some(f64::from_bits(ewma.load(Ordering::Relaxed)) / 1e6)
    }

    /// Per-shard estimates in MB/s (`0.0` for never-observed shards).
    pub(crate) fn snapshot_mbps(&self) -> Vec<f64> {
        (0..self.cells.len())
            .map(|s| self.estimate_mbps(s).unwrap_or(0.0))
            .collect()
    }
}

/// The shared spill context every read goes through: the shard files,
/// the runtime bandwidth profiler, the store's [`IoStats`], the optional
/// fault plan and the simulated devices it brings. Every spill read is
/// [`IoShards::read_range`], so the profiler, the accounting, the fault
/// injection and the device model can never drift apart between readers.
pub(crate) struct IoShards {
    pub(crate) files: Vec<SpillFile>,
    pub(crate) stats: IoStats,
    pub(crate) profile: BandwidthProfile,
    /// Read and append faults (test support; see [`crate::testing`]).
    pub(crate) fault: Option<FaultPlan>,
    /// One simulated bandwidth clock per shard; empty unless the fault
    /// plan carries device profiles.
    pub(crate) clocks: Vec<BandwidthClock>,
}

impl IoShards {
    pub(crate) fn new(files: Vec<SpillFile>, fault: Option<FaultPlan>) -> Self {
        let clocks = fault
            .as_ref()
            .map_or_else(Vec::new, |f| f.clocks(files.len()));
        Self {
            profile: BandwidthProfile::new(files.len()),
            files,
            stats: IoStats::default(),
            fault,
            clocks,
        }
    }

    /// Read `len` raw bytes at `offset` of `shard` into `buf` (cleared and
    /// resized) — through the fault plan's gauntlet when one is set.
    pub(crate) fn read_range(
        &self,
        shard: usize,
        offset: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        buf.clear();
        buf.resize(len, 0);
        match &self.fault {
            Some(plan) => plan.faulty_read(self, shard, offset, buf),
            None => self.read_at(shard, offset, buf),
        }
    }

    /// One physical read of `buf.len()` bytes at `offset`, then the
    /// accounting shared by every read: the simulated device charge (only
    /// with a device-model fault plan), the `disk_reads`/`bytes_read`
    /// counters, the latency histogram and the profiler observation. The
    /// elapsed time includes any simulated device delay and queueing
    /// behind other readers of the shard.
    pub(crate) fn read_at(&self, shard: usize, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let t0 = Instant::now();
        self.files[shard].read_exact_at(buf, offset)?;
        if let Some(clock) = self.clocks.get(shard) {
            clock.charge(buf.len());
        }
        self.stats.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let elapsed = t0.elapsed();
        self.stats.latency.record(elapsed);
        self.profile.observe(shard, buf.len(), elapsed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// IO statistics.

/// Number of power-of-two read-latency buckets ([`LatencyHistogram`]).
pub const LATENCY_BUCKETS: usize = 16;

/// Lock-free log2 histogram of latencies in microseconds: bucket `b`
/// counts samples in `[2^(b-1), 2^b)` µs (bucket 0 is `< 1 µs`, the last
/// bucket is open-ended).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let b = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
        };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Upper bound of latency bucket `b` in microseconds.
pub fn latency_bucket_upper_us(b: usize) -> u64 {
    1u64 << b
}

/// Cumulative IO statistics (updated on every spilled read).
///
/// All counters are independent relaxed atomics: a [`IoStats::snapshot`]
/// taken mid-run can observe them at slightly different instants (e.g. a
/// read whose `disk_reads` increment is visible but whose `bytes_read`
/// is not yet). [`IoStats::snapshot_stable`] retries until two
/// back-to-back snapshots agree, which converges immediately whenever
/// the store is quiescent and bounds the skew to one in-flight update
/// otherwise. Counters that are only ever touched by the visiting thread
/// itself (`spill_requests`, `prefetch_hits`, `prefetch_misses`) are
/// exact the moment every visit has returned — the stress and
/// fault-injection suites assert `hits + misses == spill_requests`
/// ([`IoSnapshot::assert_consistent`]).
#[derive(Debug, Default)]
pub struct IoStats {
    /// Physical spill reads performed (a chunked faulty read counts once
    /// per chunk).
    pub disk_reads: AtomicU64,
    /// Bytes read from spill files.
    pub bytes_read: AtomicU64,
    /// Spilled visits served by the prefetch pipeline (the batch was
    /// already decoded, or a worker was reading it and the visit waited).
    pub prefetch_hits: AtomicU64,
    /// Spilled visits that found no prefetch slot and read synchronously.
    pub prefetch_misses: AtomicU64,
    /// Spilled visits requested through the prefetch pipeline; every one
    /// resolves to exactly one hit or miss by the time `visit` returns.
    pub spill_requests: AtomicU64,
    /// Spilled tenant visits served from the shared compressed-batch
    /// cache ([`crate::serve::BatchCache`]) — no physical read, no
    /// prefetch request.
    pub cache_hits: AtomicU64,
    /// Spilled tenant visits that missed the shared cache and paid a
    /// direct physical read (each one increments `disk_reads` too).
    pub cache_misses: AtomicU64,
    /// Nanoseconds tenant jobs spent blocked on per-job IO-share QoS
    /// throttling.
    pub qos_throttle_ns: AtomicU64,
    /// Nanoseconds the streaming-ingest producer spent blocked on the
    /// bounded sealed-chunk budget
    /// ([`crate::store::StoreConfig::with_max_pending`]) waiting for a
    /// consumer to drain appended segments — the backpressure stall
    /// signal, disjoint from every read-side counter above.
    pub ingest_stall_ns: AtomicU64,
    /// Latency of every physical spill read, simulated device delay
    /// included.
    pub latency: LatencyHistogram,
}

impl IoStats {
    /// Point-in-time copy of all counters. Each counter is read once with
    /// relaxed ordering; see the type docs for the (bounded) skew a
    /// mid-run snapshot can observe.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            disk_reads: self.disk_reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_misses: self.prefetch_misses.load(Ordering::Relaxed),
            spill_requests: self.spill_requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            qos_throttle_ns: self.qos_throttle_ns.load(Ordering::Relaxed),
            ingest_stall_ns: self.ingest_stall_ns.load(Ordering::Relaxed),
            latency_us: self.latency.snapshot(),
        }
    }

    /// Seqlock-style stable snapshot: re-read until two consecutive
    /// snapshots agree (bounded retries). At quiescence the first retry
    /// already agrees; under concurrent writers this still bounds the
    /// cross-counter skew to whatever changed during one read pass.
    pub fn snapshot_stable(&self) -> IoSnapshot {
        let mut prev = self.snapshot();
        for _ in 0..64 {
            let cur = self.snapshot();
            if cur == prev {
                return cur;
            }
            prev = cur;
        }
        prev
    }
}

/// Plain-value copy of [`IoStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub disk_reads: u64,
    pub bytes_read: u64,
    pub prefetch_hits: u64,
    pub prefetch_misses: u64,
    pub spill_requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub qos_throttle_ns: u64,
    pub ingest_stall_ns: u64,
    pub latency_us: [u64; LATENCY_BUCKETS],
}

impl IoSnapshot {
    /// Approximate latency percentile (`p` in 0..=100): the upper bound of
    /// the bucket containing that quantile, in microseconds. 0 when no
    /// reads were recorded, and 0 when the quantile lands in bucket 0
    /// (sub-microsecond reads): reporting bucket 0's upper
    /// bound would claim `1 µs` of latency for a histogram that only ever
    /// saw reads faster than the histogram can resolve.
    pub fn latency_percentile_us(&self, p: u64) -> u64 {
        let total: u64 = self.latency_us.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total * p).div_ceil(100).max(1);
        let mut seen = 0;
        for (b, &n) in self.latency_us.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if b == 0 {
                    0
                } else {
                    latency_bucket_upper_us(b)
                };
            }
        }
        latency_bucket_upper_us(LATENCY_BUCKETS - 1)
    }

    /// Assert the cross-counter invariants that must hold once every
    /// visit has returned (quiescent or not — these counters are only
    /// written by the visiting threads themselves): every prefetch-path
    /// request resolved to exactly one hit or miss, and every shared-cache
    /// miss paid its own physical read — a cache-served visit that was
    /// also counted as a miss, or a miss that never reached the device,
    /// shows up here as under-counted reads.
    #[track_caller]
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.prefetch_hits + self.prefetch_misses,
            self.spill_requests,
            "prefetch hit/miss accounting diverged from requests: {self:?}"
        );
        assert!(
            self.disk_reads >= self.cache_misses,
            "cache misses not covered by physical reads: {self:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Seekable v2 container reads.

/// A v2 `.tocz` container opened for random access.
///
/// Opening costs exactly three positional reads — header, postscript,
/// footer — and never touches segment bytes. After that, every
/// [`SeekableContainer::decode_rows`] projection reads only the segments
/// whose row ranges the footer's layout tree says intersect the query,
/// each with one positional read of exactly its byte extent (the same
/// `pread` path the spill shards use; no seek, no shared cursor, safe
/// from any number of threads). All reads are charged to an [`IoStats`]
/// owned by this handle, so callers can assert byte-precise access
/// patterns — the random-access CI gate does.
pub struct SeekableContainer {
    file: SpillFile,
    footer: toc_formats::container::Footer,
    footer_offset: u64,
    stats: IoStats,
}

impl SeekableContainer {
    /// Open `path` and parse its postscript + footer (3 positional reads).
    pub fn open(path: &std::path::Path) -> Result<Self, String> {
        use toc_formats::container as cz;
        let ctx = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        let f = File::open(path).map_err(|e| ctx(&e))?;
        let file_len = f.metadata().map_err(|e| ctx(&e))?.len();
        if file_len < (cz::HEADER_LEN + cz::POSTSCRIPT_LEN) as u64 {
            return Err(ctx(&"file too short for a v2 container"));
        }
        let file = SpillFile::new(f);
        let stats = IoStats::default();
        let read_at = |len: usize, offset: u64| -> Result<Vec<u8>, String> {
            let mut buf = vec![0u8; len];
            file.read_exact_at(&mut buf, offset).map_err(|e| ctx(&e))?;
            stats.disk_reads.fetch_add(1, Ordering::Relaxed);
            stats.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
            Ok(buf)
        };
        let header = read_at(cz::HEADER_LEN, 0)?;
        if u32::from_le_bytes(header[0..4].try_into().unwrap()) != cz::MAGIC {
            return Err(ctx(&"bad container magic"));
        }
        if header[4] != 2 {
            return Err(ctx(&format!(
                "container version {} is not seekable (v2 required; \
                 `toc compress` writes v2 by default)",
                header[4]
            )));
        }
        let tail = read_at(cz::POSTSCRIPT_LEN, file_len - cz::POSTSCRIPT_LEN as u64)?;
        let ps = cz::Postscript::parse(&tail).map_err(|e| ctx(&e))?;
        ps.validate(file_len).map_err(|e| ctx(&e))?;
        let fbytes = read_at(ps.footer_len as usize, ps.footer_offset)?;
        if cz::fnv1a64(&fbytes) != ps.footer_checksum {
            return Err(ctx(&"footer checksum mismatch"));
        }
        let footer = cz::Footer::from_bytes(&fbytes).map_err(|e| ctx(&e))?;
        if footer.root.end > ps.footer_offset || footer.root.begin < cz::HEADER_LEN as u64 {
            return Err(ctx(&"layout tree extends outside the segment region"));
        }
        footer
            .leaves_validated(ps.footer_offset)
            .map_err(|e| ctx(&e))?;
        Ok(Self {
            file,
            footer,
            footer_offset: ps.footer_offset,
            stats,
        })
    }

    /// The parsed footer (layout tree + zone maps).
    pub fn footer(&self) -> &toc_formats::container::Footer {
        &self.footer
    }

    /// IO counters for every read this handle has performed.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    pub fn num_segments(&self) -> usize {
        self.footer.num_segments()
    }

    pub fn total_rows(&self) -> usize {
        self.footer.total_rows() as usize
    }

    pub fn cols(&self) -> usize {
        self.footer.cols as usize
    }

    /// Raw encoded bytes of segment `idx` (one positional read of exactly
    /// the segment's extent).
    pub fn read_segment_bytes(&self, idx: usize) -> Result<Vec<u8>, String> {
        let leaves = self.footer.leaves();
        let leaf = leaves
            .get(idx)
            .ok_or_else(|| format!("segment {idx} out of 0..{}", leaves.len()))?;
        let len = (leaf.end - leaf.begin) as usize;
        let mut buf = vec![0u8; len];
        self.file
            .read_exact_at(&mut buf, leaf.begin)
            .map_err(|e| format!("segment {idx}: {e}"))?;
        self.stats.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        Ok(buf)
    }

    /// Read and parse segment `idx`, cross-checking its shape and scheme
    /// tag against the footer.
    pub fn decode_segment(&self, idx: usize) -> Result<toc_formats::AnyBatch, String> {
        let bytes = self.read_segment_bytes(idx)?;
        let leaf = self.footer.leaves()[idx].clone();
        if bytes.first() != leaf.scheme.as_ref() {
            return Err(format!(
                "segment {idx}: scheme tag disagrees with the footer"
            ));
        }
        let batch =
            toc_formats::Scheme::from_bytes(&bytes).map_err(|e| format!("segment {idx}: {e}"))?;
        if batch.rows() as u64 != leaf.row_end - leaf.row_start || batch.cols() != self.cols() {
            return Err(format!("segment {idx}: shape disagrees with the footer"));
        }
        Ok(batch)
    }

    /// Decode rows `r0..r1`, reading only the segments the layout tree
    /// says intersect the range and trimming the partial segments at the
    /// edges.
    pub fn decode_rows(&self, r0: usize, r1: usize) -> Result<DenseMatrix, String> {
        self.decode_rows_parallel(r0, r1, 1)
    }

    /// [`SeekableContainer::decode_rows`] with the touched segments
    /// decoded by `workers` threads (1 = inline). Output is identical to
    /// the serial path; only the read/decode order varies.
    pub fn decode_rows_parallel(
        &self,
        r0: usize,
        r1: usize,
        workers: usize,
    ) -> Result<DenseMatrix, String> {
        let total = self.total_rows();
        if r0 > r1 || r1 > total {
            return Err(format!("row range {r0}..{r1} out of 0..{total}"));
        }
        let mut out = DenseMatrix::zeros(r1 - r0, self.cols());
        let segs = self.footer.segments_overlapping_rows(r0 as u64, r1 as u64);
        // Each decoded segment lands in a disjoint row band of `out`; a
        // worker returns (output row offset, trimmed rows) and the main
        // thread copies them in.
        let decode_one = |idx: usize| -> Result<(usize, DenseMatrix), String> {
            let leaf = self.footer.leaves()[idx].clone();
            let (seg_start, seg_end) = (leaf.row_start as usize, leaf.row_end as usize);
            let batch = self.decode_segment(idx)?;
            let lo = r0.max(seg_start) - seg_start;
            let hi = r1.min(seg_end) - seg_start;
            let mut part = DenseMatrix::default();
            batch.decode_rows_into(lo, hi, &mut part);
            Ok((seg_start + lo - r0, part))
        };
        let workers = workers.max(1).min(segs.len().max(1));
        let parts: Vec<Result<(usize, DenseMatrix), String>> = if workers <= 1 {
            segs.iter().map(|&i| decode_one(i)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let segs = &segs;
                        let decode_one = &decode_one;
                        scope.spawn(move || {
                            segs.iter()
                                .skip(w)
                                .step_by(workers)
                                .map(|&i| decode_one(i))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("decode worker panicked"))
                    .collect()
            })
        };
        for part in parts {
            let (at, rows) = part?;
            for r in 0..rows.rows() {
                out.row_mut(at + r).copy_from_slice(rows.row(r));
            }
        }
        Ok(out)
    }

    /// Total bytes of the segment region (what a decode-everything reader
    /// would fetch beyond the framing).
    pub fn payload_bytes(&self) -> u64 {
        self.footer_offset - toc_formats::container::HEADER_LEN as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let snap = h.snapshot();
        assert_eq!(snap.iter().sum::<u64>(), 4);
        assert_eq!(snap[0], 1); // <1us
        assert_eq!(snap[2], 2); // [2,4)us
        let s = IoSnapshot {
            latency_us: snap,
            ..Default::default()
        };
        assert_eq!(s.latency_percentile_us(50), 4);
        assert_eq!(s.latency_percentile_us(99), 1024);
        assert_eq!(IoSnapshot::default().latency_percentile_us(50), 0);
    }

    /// Pins the percentile boundary semantics: an empty histogram and a
    /// histogram whose only occupied bucket is bucket 0 (sub-microsecond
    /// completions) both report 0, never bucket 0's upper bound; a
    /// histogram occupying exactly one bucket `b > 0` reports that
    /// bucket's upper bound for every percentile.
    #[test]
    fn latency_percentile_boundary_values() {
        // Empty: 0 at every percentile.
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(IoSnapshot::default().latency_percentile_us(p), 0);
        }
        // All samples sub-microsecond: the quantile lands in bucket 0 and
        // must report 0, not 1 µs.
        let mut sub_us = IoSnapshot::default();
        sub_us.latency_us[0] = 17;
        for p in [1, 50, 99, 100] {
            assert_eq!(sub_us.latency_percentile_us(p), 0, "p{p}");
        }
        // One occupied bucket b > 0: every percentile reports 2^b.
        for b in [1, 5, LATENCY_BUCKETS - 1] {
            let mut one = IoSnapshot::default();
            one.latency_us[b] = 3;
            for p in [1, 50, 100] {
                assert_eq!(
                    one.latency_percentile_us(p),
                    latency_bucket_upper_us(b),
                    "bucket {b} p{p}"
                );
            }
        }
        // Mixed bucket-0 + higher bucket: quantiles below the bucket-0
        // mass report 0, quantiles above it report the upper bucket.
        let mut mixed = IoSnapshot::default();
        mixed.latency_us[0] = 9;
        mixed.latency_us[4] = 1;
        assert_eq!(mixed.latency_percentile_us(50), 0);
        assert_eq!(mixed.latency_percentile_us(100), 16);
    }

    /// Pins the cache-aware coverage invariant: cache-served visits enter
    /// neither the prefetch nor the physical-read ledgers, while every
    /// shared-cache miss must be covered by its own physical read — a
    /// miss that never reached the device (i.e. was double-counted as
    /// cache-served) must trip `assert_consistent`.
    #[test]
    fn assert_consistent_accounts_cache_served_reads() {
        // Pure tenant workload: 6 hits cost nothing, 4 misses each paid a
        // direct physical read. No prefetch traffic at all.
        let tenant = IoSnapshot {
            disk_reads: 4,
            cache_hits: 6,
            cache_misses: 4,
            ..Default::default()
        };
        tenant.assert_consistent();

        // Tenant + prefetch side by side: the pipeline's 5 reads and the
        // tenants' 4 miss reads are disjoint physical reads.
        let mixed = IoSnapshot {
            disk_reads: 9,
            spill_requests: 5,
            prefetch_hits: 5,
            cache_hits: 6,
            cache_misses: 4,
            ..Default::default()
        };
        mixed.assert_consistent();

        // Double-counting: a visit recorded as a cache miss without a
        // covering physical read (e.g. it was actually served from the
        // cache).
        let double = IoSnapshot {
            disk_reads: 3,
            cache_misses: 4,
            ..Default::default()
        };
        assert!(std::panic::catch_unwind(|| double.assert_consistent()).is_err());
    }

    #[test]
    fn bandwidth_profile_tracks_observed_throughput() {
        let p = BandwidthProfile::new(2);
        assert_eq!(p.estimate_mbps(0), None);
        // 1 MB in 10 ms = 100 MB/s; the first sample seeds the EWMA.
        p.observe(0, 1_000_000, Duration::from_millis(10));
        let e = p.estimate_mbps(0).unwrap();
        assert!((e - 100.0).abs() < 1.0, "{e}");
        // A slower sample pulls the estimate down by alpha.
        p.observe(0, 1_000_000, Duration::from_millis(100)); // 10 MB/s
        let e2 = p.estimate_mbps(0).unwrap();
        assert!(e2 < e && e2 > 10.0, "{e2}");
        // Shard 1 is independent and still unobserved.
        assert_eq!(p.estimate_mbps(1), None);
        assert_eq!(p.snapshot_mbps()[1], 0.0);
        // Out-of-range shards are ignored, not panics.
        p.observe(9, 100, Duration::from_micros(1));
        assert_eq!(p.estimate_mbps(0), Some(e2));
    }

    /// Every spill read — plain or through the fault gauntlet — delivers
    /// exactly the requested bytes and lands in the latency histogram
    /// once per physical read (a chunked faulty read once per chunk).
    #[test]
    fn read_range_accounts_every_read_with_and_without_faults() {
        let path = std::env::temp_dir().join(format!("toc-io-read-{}.bin", std::process::id()));
        let bytes: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        std::fs::write(&path, &bytes).unwrap();
        let open = || std::fs::File::open(&path).unwrap();
        let plain = IoShards::new(vec![SpillFile::new(open())], None);
        assert!(plain.clocks.is_empty());
        let mut buf = Vec::new();
        plain.read_range(0, 100, 1000, &mut buf).unwrap();
        assert_eq!(buf, &bytes[100..1100]);
        let s = plain.stats.snapshot();
        assert_eq!((s.disk_reads, s.bytes_read), (1, 1000));
        assert_eq!(s.latency_us.iter().sum::<u64>(), 1);
        assert!(
            plain.read_range(0, 4000, 200, &mut buf).is_err(),
            "past EOF"
        );

        let plan = FaultPlan {
            eintr_per_mille: 1000,
            ..FaultPlan::default()
        };
        let faults = plan.stats.clone();
        let faulty = IoShards::new(vec![SpillFile::new(open())], Some(plan));
        faulty.read_range(0, 7, 3000, &mut buf).unwrap();
        assert_eq!(buf, &bytes[7..3007]);
        let s = faulty.stats.snapshot();
        assert!((2..=4).contains(&s.disk_reads), "{s:?}");
        assert_eq!(s.bytes_read, 3000);
        assert_eq!(s.latency_us.iter().sum::<u64>(), s.disk_reads);
        assert_eq!(faults.chunked_requests.load(Ordering::Relaxed), 1);
        assert!(faults.eintr_retries.load(Ordering::Relaxed) >= 2);
        std::fs::remove_file(&path).ok();
    }
}
