//! Out-of-core read-path scaling: the single-file store vs. the sharded
//! store vs. sharded + synchronous prefetch, across schemes.
//!
//! Everything spills (budget 0). The sharded rows run twice: once on the
//! simulated bandwidth model, where IO is the wall — the single-file store
//! serializes readers on one device clock, sharding gives each of N
//! devices its own clock (aggregate bandwidth scales with N), and
//! prefetch overlaps the read+decode of upcoming batches with the
//! visitor's work — and once unthrottled, on the page cache, where the
//! rows show what prefetch costs when reads are nearly free.
//!
//! The binary ends with an acceptance gate (it asserts, so CI fails
//! loudly on a regression): adaptive placement must beat static pack by
//! ≥ 1.15× epoch throughput on the seeded *asymmetric-bandwidth* workload
//! (one fast shard, three slow ones — the heterogeneity the profiler
//! exists to discover).
//!
//! ```text
//! cargo run -p toc-bench --release --bin store_scaling -- \
//!     --rows=3000 --threads=8 --mbps=400 --shards=4 --prefetch=8
//! ```

use toc_bench::{arg, fmt_duration, mb_per_s, sweep_store, Table};
use toc_data::store::{ShardPlacement, ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_data::testing::{DeviceProfile, FaultPlan};
use toc_formats::Scheme;

fn main() {
    let rows: usize = arg("rows", 3000);
    let batch_rows: usize = arg("batch-rows", 250);
    let threads: usize = arg("threads", 8);
    let mbps: f64 = arg("mbps", 400.0);
    let shards: usize = arg("shards", 0); // 0 = available parallelism
    let prefetch: usize = arg("prefetch", 8);
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 1);
    println!(
        "store_scaling: {rows} rows x {} cols, batch_rows={batch_rows}, budget=0 (all spilled), \
         device model {mbps} MB/s or unthrottled, {threads} visitor threads",
        ds.x.cols()
    );

    let mut table = Table::new(vec![
        "scheme", "store", "device", "spill MB", "1T sweep", "nT sweep", "speedup", "pf hit%",
    ]);
    for scheme in [Scheme::Den, Scheme::Csr, Scheme::Gzip, Scheme::Toc] {
        let base = StoreConfig::new(scheme, batch_rows, 0);
        let modeled = base
            .clone()
            .with_fault_plan(FaultPlan::device(vec![DeviceProfile::stable(mbps)]));
        // (a) single-file store: one device clock for every reader.
        // (b) sharded: N independent device clocks, lock-free reads.
        // (c) sharded + prefetch: workers read and decode ahead.
        let legs = [
            ("1-file", 1, 0, &modeled),
            ("sharded", shards, 0, &modeled),
            ("sharded", shards, 0, &base),
            ("sharded", shards, prefetch, &modeled),
            ("sharded", shards, prefetch, &base),
        ];
        for (name, n_shards, depth, cfg) in legs {
            let cfg = cfg.clone().with_shards(n_shards).with_prefetch(depth);
            let store = ShardedSpillStore::build(&ds.x, &ds.labels, &cfg).expect("store build");
            let seq = sweep_store(&store, 1);
            let par = sweep_store(&store, threads);
            let s = store.stats().snapshot_stable();
            let visits = s.prefetch_hits + s.prefetch_misses;
            table.row(vec![
                scheme.name().to_string(),
                match depth {
                    0 => format!("{name}({})", store.num_shards()),
                    k => format!("{name}({})+pf{k}", store.num_shards()),
                },
                match cfg.fault {
                    Some(_) => format!("{mbps} MB/s"),
                    None => "unthrottled".into(),
                },
                format!("{:.1}", store.spilled_bytes() as f64 / 1e6),
                fmt_duration(seq),
                fmt_duration(par),
                format!("{:.1}x", seq.as_secs_f64() / par.as_secs_f64()),
                match visits {
                    0 => "-".into(),
                    v => format!("{:.0}%", 100.0 * s.prefetch_hits as f64 / v as f64),
                },
            ]);
        }
    }
    table.print();
    println!(
        "(1T/nT sweep = wall time for 1/{threads} concurrent visitors to visit every batch once; \
         pf hit% = spilled visits served by the prefetch pipeline)"
    );

    adaptive_acceptance_gate();
}

/// Acceptance gate for adaptive placement: on the seeded
/// asymmetric-bandwidth workload — shard 0 at 400 MB/s, shards 1–3 at
/// 25 MB/s — adaptive placement must reach ≥ 1.15× the steady-state
/// epoch throughput of static pack placement. Both stores run the same
/// prefetch pipeline; the only difference is where the bytes live. Static pack spreads them evenly, so every epoch waits on the
/// slow devices; adaptive profiles the shards during the warm-up epochs
/// and re-packs hot bytes onto the fast device in proportion to measured
/// bandwidth.
fn adaptive_acceptance_gate() {
    let rows = 6000;
    let batch_rows = 100;
    let shard_mbps = [400.0, 25.0, 25.0, 25.0];
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 1);
    let base = StoreConfig::new(Scheme::Den, batch_rows, 0)
        .with_shards(4)
        .with_prefetch(8)
        .with_fault_plan(FaultPlan::device(
            shard_mbps.map(DeviceProfile::stable).to_vec(),
        ));

    // Steady-state epoch time: warm epochs first (the adaptive store
    // profiles and migrates there; end_epoch is what the trainer fires),
    // then time two epochs over the settled layout.
    let epoch_time = |store: &ShardedSpillStore| {
        use toc_ml::mgd::BatchProvider;
        for _ in 0..2 {
            let _ = sweep_store(store, 1);
            store.end_epoch();
        }
        let mut total = std::time::Duration::ZERO;
        for _ in 0..2 {
            total += sweep_store(store, 1);
            store.end_epoch();
        }
        total / 2
    };

    let pack_store = ShardedSpillStore::build(
        &ds.x,
        &ds.labels,
        &base.clone().with_placement(ShardPlacement::Pack),
    )
    .expect("store build");
    let bytes = pack_store.spilled_bytes();
    let pack_time = epoch_time(&pack_store);
    let pack_tp = mb_per_s(bytes, pack_time);
    drop(pack_store);

    let adaptive_store = ShardedSpillStore::build(
        &ds.x,
        &ds.labels,
        &base.with_placement(ShardPlacement::Adaptive),
    )
    .expect("store build");
    let adaptive_time = epoch_time(&adaptive_store);
    let adaptive_tp = mb_per_s(bytes, adaptive_time);
    let rep = adaptive_store.placement_report();
    adaptive_store.stats().snapshot_stable().assert_consistent();
    drop(adaptive_store);

    let ratio = adaptive_tp / pack_tp;
    println!(
        "adaptive acceptance: pack {pack_tp:.1} MB/s ({}), adaptive {adaptive_tp:.1} MB/s ({}), \
         ratio {ratio:.2}x (gate: >= 1.15x); {} batches / {} KB migrated over {} rebalances, \
         fast-shard share {:.0}%",
        fmt_duration(pack_time),
        fmt_duration(adaptive_time),
        rep.migrated_batches,
        rep.migrated_bytes / 1024,
        rep.rebalances,
        100.0 * rep.shard_bytes[0] as f64 / rep.shard_bytes.iter().sum::<u64>().max(1) as f64,
    );
    assert!(
        ratio >= 1.15,
        "adaptive placement regression: only {ratio:.2}x over static pack on the \
         asymmetric-bandwidth workload"
    );
}
