//! Fault-injection suite for the spill read and append paths.
//!
//! A `FaultPlan` serves every spill read — prefetch workers and visitor
//! misses alike — through injectable latency, chunked short reads and
//! `EINTR`-style retry spins. The property under test: **no schedule the
//! plan can produce may change a single byte** of what the store hands
//! the trainer — the spilled visit stream must be bit-identical to the
//! encoded source, and a `Trainer` run over the faulty store must land on
//! bit-identical weights to an in-memory run.

use proptest::prelude::*;
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_data::testing::FaultPlan;
use toc_formats::{MatrixBatch, Scheme};
use toc_ml::mgd::BatchProvider;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary fault schedules × store shapes: every visit returns the
    /// exact encoded bytes, single- and multi-threaded, and the IO
    /// accounting invariant holds.
    #[test]
    fn batches_are_bit_identical_under_any_interleaving(
        scheme_idx in 0usize..3,
        rows in 150usize..400,
        batch_rows in 23usize..90,
        shards in 1usize..5,
        depth in 1usize..5,
        seed in 0u64..1u64 << 48,
        max_latency_us in 0u64..300,
        chunked in proptest::prelude::any::<bool>(),
        eintr_per_mille in 0u32..400,
    ) {
        let scheme = [Scheme::Toc, Scheme::Gzip, Scheme::Cla][scheme_idx];
        let ds = generate_preset(DatasetPreset::CensusLike, rows, 31);
        let n_batches = rows.div_ceil(batch_rows);
        let expected: Vec<Vec<u8>> = (0..n_batches)
            .map(|i| {
                let end = ((i + 1) * batch_rows).min(rows);
                scheme.encode(&ds.x.slice_rows(i * batch_rows, end)).to_bytes()
            })
            .collect();

        let plan = FaultPlan {
            seed,
            max_latency_us,
            chunked_reads: chunked,
            eintr_per_mille,
            ..FaultPlan::default()
        };
        let config = StoreConfig::new(scheme, batch_rows, 0)
            .with_shards(shards)
            .with_prefetch(depth)
            .with_fault_plan(plan.clone());
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();
        prop_assert_eq!(store.spilled_batches(), n_batches);

        // Two single-visitor epochs (the second re-reads everything), then
        // a 4-thread concurrent sweep.
        for _epoch in 0..2 {
            #[allow(clippy::needless_range_loop)] // i indexes store, expected, labels in lockstep
            for i in 0..store.num_batches() {
                store.visit(i, &mut |b, labels| {
                    assert_eq!(b.to_bytes(), expected[i], "batch {i}");
                    let end = ((i + 1) * batch_rows).min(rows);
                    assert_eq!(labels, &ds.labels[i * batch_rows..end]);
                });
            }
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                let expected = &expected;
                s.spawn(move || {
                    let mut i = t;
                    while i < store.num_batches() {
                        store.visit(i, &mut |b, _| {
                            assert_eq!(b.to_bytes(), expected[i], "batch {i}");
                        });
                        i += 4;
                    }
                });
            }
        });

        let visits = (3 * n_batches) as u64;
        let s = store.stats().snapshot_stable();
        s.assert_consistent();
        prop_assert_eq!(s.spill_requests, visits);
        prop_assert_eq!(s.prefetch_hits + s.prefetch_misses, visits);
        prop_assert!(s.disk_reads >= visits, "{:?}", s);
        // Every read a visit consumed landed in the latency histogram.
        prop_assert!(s.latency_us.iter().sum::<u64>() >= visits, "{:?}", s);
    }
}

/// A long-ish run with every fault cranked up: the trainer's result must
/// be bit-identical to training over the same batches in memory, and the
/// injected faults must demonstrably have fired.
#[test]
fn trainer_is_bit_identical_under_heavy_faults() {
    use toc_ml::mgd::{MemoryProvider, MgdConfig, ModelSpec, Trainer};
    use toc_ml::LossKind;

    let ds = generate_preset(DatasetPreset::CensusLike, 500, 7);
    let batch_rows = 50;
    let scheme = Scheme::Toc;

    let reference = MemoryProvider {
        batches: (0..10)
            .map(|i| {
                (
                    scheme.encode(&ds.x.slice_rows(i * batch_rows, (i + 1) * batch_rows)),
                    ds.labels[i * batch_rows..(i + 1) * batch_rows].to_vec(),
                )
            })
            .collect(),
        features: ds.x.cols(),
    };

    let plan = FaultPlan {
        seed: 0xDEAD_BEEF,
        max_latency_us: 400,
        chunked_reads: true,
        eintr_per_mille: 500,
        ..FaultPlan::default()
    };
    let fault_stats = plan.stats.clone();
    let config = StoreConfig::new(scheme, batch_rows, 0)
        .with_shards(3)
        .with_prefetch(4)
        .with_fault_plan(plan);
    let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();

    let trainer = Trainer::new(MgdConfig {
        epochs: 6,
        lr: 0.2,
        shuffle_batches: true, // random visit order stresses the lookahead
        ..Default::default()
    });
    let spec = ModelSpec::Linear(LossKind::Logistic);
    let from_store = trainer.train(&spec, &store, None);
    let from_memory = trainer.train(&spec, &reference, None);
    assert_eq!(
        from_store.model.weights(),
        from_memory.model.weights(),
        "fault-injected spill reads perturbed training"
    );

    let s = store.stats().snapshot_stable();
    s.assert_consistent();
    assert_eq!(s.spill_requests, 6 * 10);
    // The gauntlet actually ran: chunked short reads happened, and with
    // 500‰ per chunk the EINTR spin fired with overwhelming probability.
    use std::sync::atomic::Ordering;
    assert!(
        fault_stats.chunked_requests.load(Ordering::Relaxed) >= 1,
        "no chunked reads fired"
    );
    assert!(
        fault_stats.eintr_retries.load(Ordering::Relaxed) >= 1,
        "no EINTR retries fired"
    );
    assert!(
        fault_stats.delayed_us.load(Ordering::Relaxed) >= 1,
        "no latency injected"
    );
}

/// Streaming ingestion through the fault-injecting append path: every
/// `append_sealed` write goes out as 2–4 chunked short writes with
/// latency and EINTR-style spins injected between them, yet a segment,
/// once sealed (visible through `num_batches`), must decode to exactly
/// the rows that were staged — short writes may fragment *how* bytes
/// land, never *which* bytes a reader sees.
#[test]
fn ingest_under_write_faults_seals_decodable_segments() {
    use toc_data::synth::drifting_matrix;
    use toc_data::StoreIngest;
    use toc_formats::EncodeOptions;

    let plan = FaultPlan {
        seed: 0xF00D_F00D,
        max_latency_us: 200,
        eintr_per_mille: 500,
        ..FaultPlan::default() // chunked_writes defaults to on
    };
    let fault_stats = plan.stats.clone();
    let chunk_rows = 40;
    let config = StoreConfig::new(Scheme::Toc, chunk_rows, 0)
        .with_shards(3)
        .with_fault_plan(plan);
    let store = ShardedSpillStore::open_streaming(6, &config).unwrap();

    let m = drifting_matrix(200, 6, 3, 21);
    let labels: Vec<f64> = (0..200)
        .map(|r| if r % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let mut ing = StoreIngest::new(&store, chunk_rows, None, EncodeOptions::default());
    for (r, &label) in labels.iter().enumerate() {
        ing.push_row(m.row(r), label).unwrap();
    }
    let stats = ing.finish().unwrap();
    assert_eq!(stats.chunks, 5);
    assert_eq!(store.num_batches(), 5);

    // The write gauntlet actually fired.
    use std::sync::atomic::Ordering;
    assert!(
        fault_stats.chunked_writes.load(Ordering::Relaxed) >= 1,
        "no chunked short writes fired"
    );
    assert!(
        fault_stats.delayed_us.load(Ordering::Relaxed) >= 1,
        "no append latency injected"
    );

    // Every sealed segment reads back bit-exact.
    let mut seen = 0usize;
    for i in 0..store.num_batches() {
        store.visit(i, &mut |b, y| {
            let d = b.decode();
            let end = seen + d.rows();
            assert_eq!(d, m.slice_rows(seen, end), "segment {i}");
            assert_eq!(y, &labels[seen..end], "labels {i}");
            seen = end;
        });
    }
    assert_eq!(seen, 200);
}

/// The full streaming triangle under faults: a writer process appends a
/// CSV in torn bursts (rows split across writes), a follower tails the
/// file on disk and pushes rows through `StoreIngest` with the
/// fault-injecting chunked-write append path, and two readers keep
/// sweeping every sealed batch (forward and backward) while the appends
/// are in flight. Nothing the race can produce may drop, duplicate,
/// reorder or corrupt a row.
#[test]
fn tail_follow_races_concurrent_readers_under_faults() {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;
    use toc_data::synth::drifting_matrix;
    use toc_data::{follow_rows, FollowOptions, StoreIngest};
    use toc_formats::EncodeOptions;

    let total = 240;
    let cols = 5; // 4 features + trailing ±1 label column
    let m = drifting_matrix(total, cols, 4, 33);
    let label = |r: usize| if r.is_multiple_of(3) { 1.0 } else { -1.0 };
    let mut body = String::from("a,b,c,d,y\n");
    for r in 0..total {
        for v in m.row(r).iter().take(cols - 1) {
            body.push_str(&format!("{v},"));
        }
        body.push_str(&format!("{}\n", label(r)));
    }

    let path = std::env::temp_dir().join(format!("toc-follow-race-{}.csv", std::process::id()));
    std::fs::write(&path, "").unwrap();

    let plan = FaultPlan {
        seed: 0xACE_0FBA5E,
        max_latency_us: 150,
        eintr_per_mille: 400,
        ..FaultPlan::default() // chunked_writes on: appends land as short writes
    };
    let fault_stats = plan.stats.clone();
    let chunk_rows = 16;
    let config = StoreConfig::new(Scheme::Toc, chunk_rows, 0)
        .with_shards(3)
        .with_fault_plan(plan);
    let store = ShardedSpillStore::open_streaming(cols - 1, &config).unwrap();

    let writer_done = AtomicBool::new(false);
    let ingest_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Writer: append the CSV in deterministic uneven bursts that tear
        // rows across write() calls, so the follower keeps hitting
        // carried partial lines.
        let wd = &writer_done;
        let bytes = body.as_bytes();
        let wpath = path.clone();
        s.spawn(move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&wpath)
                .unwrap();
            let mut lcg = 0x2545F491u64;
            let mut at = 0usize;
            while at < bytes.len() {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let burst = 7 + (lcg >> 33) as usize % 90;
                let end = (at + burst).min(bytes.len());
                f.write_all(&bytes[at..end]).unwrap();
                f.flush().unwrap();
                at = end;
                std::thread::sleep(Duration::from_micros(300));
            }
            wd.store(true, Ordering::Release);
        });

        // Follower: tail the growing file and ingest each row. `more`
        // keeps the follower alive through idle gaps until the writer is
        // done; after that the idle timeout ends the stream.
        let follower = s.spawn(|| {
            let mut ing = StoreIngest::new(
                &store,
                chunk_rows,
                Some(Scheme::Toc),
                EncodeOptions::default(),
            );
            let opts = FollowOptions {
                poll: Duration::from_millis(1),
                idle_timeout: Duration::from_millis(60),
            };
            let d = cols - 1;
            follow_rows(
                &path,
                &opts,
                &mut || !writer_done.load(Ordering::Acquire),
                &mut |_, row| ing.push_row(&row[..d], row[d]).map_err(|e| e.to_string()),
            )
            .unwrap();
            ing.finish().unwrap()
        });

        // Readers: sweep whatever is sealed, racing the writer's next
        // append — one backward on its own thread, one forward here.
        let (store_ref, done_ref) = (&store, &ingest_done);
        let backward = s.spawn(move || {
            while !done_ref.load(Ordering::Acquire) {
                for i in (0..store_ref.num_batches()).rev() {
                    store_ref.visit(i, &mut |_, _| {});
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        while !follower.is_finished() {
            for i in 0..store.num_batches() {
                store.visit(i, &mut |_, _| {});
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = follower.join().unwrap();
        ingest_done.store(true, Ordering::Release);
        backward.join().unwrap();
        assert_eq!(stats.rows, total as u64);
    });

    // Every row survived the race, in order, with its label.
    assert_eq!(store.num_batches(), total.div_ceil(chunk_rows));
    let mut seen = 0usize;
    for i in 0..store.num_batches() {
        store.visit(i, &mut |b, y| {
            let d = b.decode();
            for (r, &yr) in y.iter().enumerate().take(d.rows()) {
                let row = seen + r;
                assert_eq!(d.row(r), &m.row(row)[..cols - 1], "row {row}");
                assert_eq!(yr, label(row), "label {row}");
            }
            seen += d.rows();
        });
    }
    assert_eq!(seen, total);

    assert!(
        fault_stats.chunked_writes.load(Ordering::Relaxed) >= 1,
        "no chunked short writes fired"
    );

    let snap = store.stats().snapshot_stable();
    snap.assert_consistent();
    drop(store);
    std::fs::remove_file(&path).ok();
}
