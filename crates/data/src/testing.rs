//! Test support: the simulated device model and fault injection on the
//! spill read and append paths.
//!
//! A [`FaultPlan`] set on a store ([`crate::store::StoreConfig::with_fault_plan`])
//! is the only way to make its spill IO anything but real; a store
//! without one never sleeps. A plan does two things:
//!
//! - **Simulated devices.** With [`FaultPlan::device_profiles`], every
//!   physical spill read reserves `len / mbps` on its shard's bandwidth
//!   clock and sleeps until the reservation completes: readers of one
//!   shard share its bandwidth, readers of different shards do not. The
//!   delay lands in [`FaultStats::throttle_ns`]. [`FaultPlan::device`]
//!   simulates devices with every fault off; the benches and the CLI's
//!   `--mbps` use it to stand in for the paper's cloud block storage,
//!   which the OS page cache would otherwise hide.
//! - **Faults.** Every spill read and streaming append meets injected
//!   latency, chunked partial reads or writes, and `EINTR`-style retry
//!   spins, driven by an RNG seeded per operation. Reads are seeded by
//!   their extent, so a read meets the same faults whichever thread
//!   issues it. The faults are benign — the bytes delivered or written
//!   are exactly the requested ones — so any output difference they
//!   provoke is a real bug; `crates/data/tests/fault_injection.rs`
//!   asserts batches and trained weights stay bit-identical.
//!
//! This module is compiled into the library (not `#[cfg(test)]`) so
//! integration tests, benches and the CLI can drive it.

use crate::io::IoShards;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Simulated device delay charged against the shard bandwidth clocks,
    /// in nanoseconds (see [`FaultPlan::device_profiles`]).
    pub throttle_ns: Arc<AtomicU64>,
}

/// Fault schedule and simulated devices for the spill read and append
/// paths. See the module docs.
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
    /// Per-shard simulated device profiles, cycled when shorter than the
    /// shard count (one profile = a uniform device model). Empty = real
    /// IO with no simulated delay. This is how heterogeneous storage
    /// tiers — a fast NVMe shard next to slow network volumes — enter the
    /// model; the per-shard bandwidth EWMAs then measure them at runtime.
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

    /// A plan that only simulates `profiles` (cycled over the shards) and
    /// injects no faults: every read and append is whole, undelayed and
    /// uninterrupted, so the device clocks are the only difference from
    /// real IO.
    pub fn device(profiles: Vec<DeviceProfile>) -> Self {
        Self {
            max_latency_us: 0,
            chunked_reads: false,
            chunked_writes: false,
            eintr_per_mille: 0,
            device_profiles: profiles,
            ..Self::default()
        }
    }

    /// One bandwidth clock per shard, cycling `device_profiles`; empty
    /// when the plan simulates no devices.
    pub(crate) fn clocks(&self, shards: usize) -> Vec<BandwidthClock> {
        if self.device_profiles.is_empty() {
            return Vec::new();
        }
        let epoch = Instant::now();
        (0..shards)
            .map(|s| {
                let profile = self.device_profiles[s % self.device_profiles.len()];
                BandwidthClock::new(epoch, profile, Arc::clone(&self.stats.throttle_ns))
            })
            .collect()
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
        let file = &io.files[shard];
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

/// Simulated bandwidth profile for one spill device; see
/// [`FaultPlan::device_profiles`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Simulated read bandwidth for this device, in MB/s.
    pub mbps: f64,
    /// Fraction of the current bandwidth lost after each physical read
    /// (`0.0` = stable device). Models a degrading/oversubscribed device,
    /// whose falling speed the shard's bandwidth EWMA tracks.
    pub degrade: f64,
}

impl DeviceProfile {
    /// A stable device at `mbps`.
    pub fn stable(mbps: f64) -> Self {
        Self::degrading(mbps, 0.0)
    }

    /// A device that starts at `mbps` and loses `degrade` (in `[0, 1)`)
    /// of its remaining bandwidth per read, floored at
    /// [`DEGRADE_FLOOR_MBPS`].
    pub fn degrading(mbps: f64, degrade: f64) -> Self {
        assert!(mbps.is_finite() && mbps > 0.0, "mbps must be > 0");
        assert!((0.0..1.0).contains(&degrade), "degrade must be in [0,1)");
        Self { mbps, degrade }
    }
}

/// Lower bound a degrading device's bandwidth converges to, so a long run
/// can never degrade into effectively-infinite simulated sleeps.
pub const DEGRADE_FLOOR_MBPS: f64 = 1.0;

/// Simulated-bandwidth clock for one spill device (shard). Readers reserve
/// an interval on the device timeline and sleep until their reservation
/// completes, so concurrent readers of one device share its bandwidth
/// (the aggregate never exceeds the device's rate) while readers of other
/// devices are unaffected. No lock is held while sleeping.
#[derive(Debug)]
pub(crate) struct BandwidthClock {
    epoch: Instant,
    /// Device busy-until, in nanoseconds since `epoch`.
    busy_until_ns: AtomicU64,
    /// Current MB/s as f64 bits (a degrading device lowers it per read).
    mbps_bits: AtomicU64,
    degrade: f64,
    /// The plan's [`FaultStats::throttle_ns`].
    throttle_ns: Arc<AtomicU64>,
}

impl BandwidthClock {
    fn new(epoch: Instant, profile: DeviceProfile, throttle_ns: Arc<AtomicU64>) -> Self {
        Self {
            epoch,
            busy_until_ns: AtomicU64::new(0),
            mbps_bits: AtomicU64::new(profile.mbps.to_bits()),
            degrade: profile.degrade,
            throttle_ns,
        }
    }

    /// The bandwidth this device currently simulates, in MB/s.
    fn mbps(&self) -> f64 {
        f64::from_bits(self.mbps_bits.load(Ordering::Relaxed))
    }

    /// Charge one physical read of `len` bytes: reserve `len / mbps` on
    /// the device timeline, sleep until the reservation completes, then
    /// apply the degrading profile.
    pub(crate) fn charge(&self, len: usize) {
        let delay_ns = (len as f64 / (self.mbps() * 1e6) * 1e9) as u64;
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut cur = self.busy_until_ns.load(Ordering::Relaxed);
        let deadline = loop {
            let deadline = cur.max(now) + delay_ns;
            match self.busy_until_ns.compare_exchange_weak(
                cur,
                deadline,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break deadline,
                Err(seen) => cur = seen,
            }
        };
        self.throttle_ns.fetch_add(delay_ns, Ordering::Relaxed);
        if deadline > now {
            std::thread::sleep(Duration::from_nanos(deadline - now));
        }
        if self.degrade > 0.0 {
            let next = (self.mbps() * (1.0 - self.degrade)).max(DEGRADE_FLOOR_MBPS);
            // Racing decays may lose one step; the decay is monotone either way.
            self.mbps_bits.store(next.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrading_device_decays_to_floor() {
        let plan = FaultPlan::device(vec![
            DeviceProfile::degrading(100.0, 0.5),
            DeviceProfile::stable(42.0),
        ]);
        let clocks = plan.clocks(3);
        assert_eq!(clocks.len(), 3);
        assert_eq!(clocks[0].mbps(), 100.0);
        clocks[0].charge(1);
        assert_eq!(clocks[0].mbps(), 50.0);
        for _ in 0..32 {
            clocks[0].charge(1);
        }
        assert_eq!(clocks[0].mbps(), DEGRADE_FLOOR_MBPS);
        // A stable device never decays, and the profiles cycle over the
        // shards.
        clocks[1].charge(1);
        assert_eq!(clocks[1].mbps(), 42.0);
        assert_eq!(clocks[2].mbps(), 100.0);
        // Every charge lands in the plan's shared throttle counter.
        assert!(plan.stats.throttle_ns.load(Ordering::Relaxed) > 0);
        // Without profiles there is no device state at all.
        assert!(FaultPlan::default().clocks(4).is_empty());
    }
}
