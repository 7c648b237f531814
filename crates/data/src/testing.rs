//! Test support: fault injection on the spill read and append paths.
//!
//! A [`FaultPlan`] set on a store ([`crate::store::StoreConfig::with_fault_plan`])
//! routes every spill read through [`FaultPlan::faulty_read`] and every
//! streaming append through [`FaultPlan::faulty_append`]: injected
//! latency, chunked partial reads or writes, and `EINTR`-style retry
//! spins, all driven by an RNG seeded per operation. Reads are seeded by
//! their extent, so a given read always meets the same faults no matter
//! which thread issues it — prefetch worker, visitor miss, tenant cache
//! miss or adaptive migration. The faults are benign: the bytes delivered
//! or written are always exactly the requested ones, so any output
//! difference they provoke is a real bug. The fault-injection suite
//! (`crates/data/tests/fault_injection.rs`) asserts with proptest over the
//! fault space that batches and trained weights stay bit-identical.
//!
//! This module is compiled into the library (not `#[cfg(test)]`) so
//! integration tests and other crates' suites can drive it.

use crate::io::{DeviceProfile, IoShards};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared observability counters for a [`FaultPlan`]: tests keep a clone
/// of the plan and assert the faults actually fired.
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    /// `EINTR`-style retry spins taken before a chunk read or write.
    pub eintr_retries: Arc<AtomicU64>,
    /// Reads served in more than one chunk (simulated short reads).
    pub chunked_requests: Arc<AtomicU64>,
    /// Sealed-segment appends landed in more than one partial `pwrite`
    /// (simulated short writes on the ingest path).
    pub chunked_writes: Arc<AtomicU64>,
    /// Total injected latency, in microseconds.
    pub delayed_us: Arc<AtomicU64>,
}

/// Fault schedule for the spill read and append paths. See the module
/// docs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// RNG seed for the fault schedule.
    pub seed: u64,
    /// Uniform per-operation latency in `[0, max_latency_us]` µs.
    pub max_latency_us: u64,
    /// Serve each read in 2–4 partial reads at sub-offsets (a short read
    /// followed by continuation reads) instead of one `pread`.
    pub chunked_reads: bool,
    /// Land each sealed-segment append in 2–4 partial `pwrite`s at
    /// bumped offsets (short writes) instead of one `write_all_at`, with
    /// the same latency/EINTR gauntlet as the read path. Only the
    /// streaming-ingest append path consults this; spill-at-build writes
    /// are unaffected.
    pub chunked_writes: bool,
    /// Per-chunk probability (‰) of an `EINTR`-style retry spin before
    /// the chunk proceeds.
    pub eintr_per_mille: u32,
    /// Per-shard asymmetric bandwidth profiles (cycled when shorter than
    /// the shard count; empty = the store's uniform model). This is how
    /// the scheduler harness gives the store fast, slow, and degrading
    /// devices to discover: the profiles are applied to the shard devices
    /// at store build, so every read simulates them, and the adaptive
    /// planner has a real signal to migrate by.
    pub device_profiles: Vec<DeviceProfile>,
    /// Observability counters (shared through clones of the plan).
    pub stats: FaultStats,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xF0CA,
            max_latency_us: 200,
            chunked_reads: true,
            chunked_writes: true,
            eintr_per_mille: 250,
            device_profiles: Vec::new(),
            stats: FaultStats::default(),
        }
    }
}

impl FaultPlan {
    /// A plan that differs from the default only in seed — handy for
    /// proptest sweeps over schedules.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The fault schedule for operation `key`: deterministic in the seed
    /// and the key, independent of thread timing.
    fn rng(&self, key: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ key.wrapping_mul(0x517C_C1B7_2722_0A95))
    }

    /// Sleep a seeded latency in `[0, max_latency_us]`.
    fn delay(&self, rng: &mut StdRng) {
        if self.max_latency_us > 0 {
            let us = rng.gen_range(0..=self.max_latency_us);
            if us > 0 {
                self.stats.delayed_us.fetch_add(us, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
    }

    /// Spin up to four seeded `EINTR`-style retries before a chunk.
    fn interrupt(&self, rng: &mut StdRng) {
        let mut spins = 0;
        while spins < 4 && rng.gen_range(0..1000u32) < self.eintr_per_mille {
            self.stats.eintr_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
            spins += 1;
        }
    }

    /// Split `len` bytes into 2–4 seeded chunks; `None` when the plan
    /// leaves the operation whole.
    fn chunk_len(rng: &mut StdRng, chunked: bool, len: usize) -> Option<usize> {
        (chunked && len >= 2).then(|| len.div_ceil(rng.gen_range(2..=4usize.min(len))))
    }

    /// Serve one spill read of `buf.len()` bytes at `offset` with the
    /// plan's read faults: injected latency, then the buffer fills in 2–4
    /// partial reads at bumped offsets with EINTR-style spins before each.
    /// Every chunk is a physical read charged through
    /// [`IoShards::read_at`], so the device model, the profiler and the
    /// counters keep working under faults. Deterministic per
    /// `(shard, offset)`.
    pub(crate) fn faulty_read(
        &self,
        io: &IoShards,
        shard: usize,
        offset: u64,
        buf: &mut [u8],
    ) -> std::io::Result<()> {
        let mut rng = self.rng(offset ^ (shard as u64).rotate_right(16));
        self.delay(&mut rng);
        let Some(chunk) = Self::chunk_len(&mut rng, self.chunked_reads, buf.len()) else {
            return io.read_at(shard, offset, buf);
        };
        self.stats.chunked_requests.fetch_add(1, Ordering::Relaxed);
        for (i, part) in buf.chunks_mut(chunk).enumerate() {
            self.interrupt(&mut rng);
            io.read_at(shard, offset + (i * chunk) as u64, part)?;
        }
        Ok(())
    }

    /// Apply the plan's *write* faults to one sealed-segment append:
    /// injected latency, then the buffer lands in 2–4 partial `pwrite`s
    /// at bumped offsets with EINTR-style retry spins between chunks.
    /// The bytes on disk are always exactly `bytes` at `offset`, so a
    /// sealed segment that later fails to decode is a real append-path
    /// bug, not an artifact of the injection. Deterministic per `seq`
    /// (the store-wide append sequence number), independent of thread
    /// timing.
    pub(crate) fn faulty_append(
        &self,
        io: &IoShards,
        shard: usize,
        offset: u64,
        bytes: &[u8],
        seq: u64,
    ) -> std::io::Result<()> {
        let mut rng = self.rng(seq);
        self.delay(&mut rng);
        let file = &io.devices[shard].file;
        let Some(chunk) = Self::chunk_len(&mut rng, self.chunked_writes, bytes.len()) else {
            return file.write_all_at(bytes, offset);
        };
        self.stats.chunked_writes.fetch_add(1, Ordering::Relaxed);
        for (i, part) in bytes.chunks(chunk).enumerate() {
            self.interrupt(&mut rng);
            file.write_all_at(part, offset + (i * chunk) as u64)?;
        }
        Ok(())
    }
}
