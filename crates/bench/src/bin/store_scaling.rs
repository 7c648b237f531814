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
//! The binary prints the table and has no gate: the device-model rows
//! measure overlap against a simulated clock that sleeps, which is not a
//! performance result on its own.
//!
//! ```text
//! cargo run -p toc-bench --release --bin store_scaling -- \
//!     --rows=3000 --threads=8 --mbps=400 --shards=4 --prefetch=8
//! ```

use toc_bench::{arg, fmt_duration, sweep_store, Table};
use toc_data::store::{ShardedSpillStore, StoreConfig};
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
}
