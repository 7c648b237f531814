//! Property tests for the out-of-core path: arbitrary (scheme ×
//! batch_rows × budget × shards × prefetch) configurations round-trip
//! through spill with decode-equality against the source matrix, for
//! both the single-file (one-shard) and the sharded store.

use proptest::prelude::*;
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

/// Visit every batch twice (the second pass exercises the re-read path)
/// and assert exact decode- and label-equality with the source.
fn assert_roundtrip(
    provider: &dyn BatchProvider,
    x: &DenseMatrix,
    labels: &[f64],
    batch_rows: usize,
) {
    for _epoch in 0..2 {
        for i in 0..provider.num_batches() {
            let start = i * batch_rows;
            let end = (start + batch_rows).min(x.rows());
            provider.visit(i, &mut |b, y| {
                assert_eq!(b.decode(), x.slice_rows(start, end), "batch {i}");
                assert_eq!(y, &labels[start..end], "labels {i}");
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spilled_batches_roundtrip(
        scheme_idx in 0usize..Scheme::PAPER_SET.len(),
        rows in 60usize..240,
        batch_rows in 1usize..97,
        budget_pct in 0usize..=120,
        shards in 1usize..5,
        prefetch in 0usize..4,
    ) {
        let scheme = Scheme::PAPER_SET[scheme_idx];
        let ds = generate_preset(DatasetPreset::CensusLike, rows, 17);
        let n_batches = rows.div_ceil(batch_rows);

        // Scale the budget off the true footprint so every case exercises
        // a meaningful memory/disk split (0% = all spilled, >100% = none).
        let probe = ShardedSpillStore::build(
            &ds.x,
            &ds.labels,
            &StoreConfig::new(scheme, batch_rows, usize::MAX),
        )
        .unwrap();
        let budget = probe.total_bytes() * budget_pct / 100;

        let config = StoreConfig::new(scheme, batch_rows, budget)
            .with_shards(shards)
            .with_prefetch(prefetch);
        // The single-spill-file reference: one shard, no prefetch.
        let flat_config = StoreConfig::new(scheme, batch_rows, budget).with_shards(1);
        let flat = ShardedSpillStore::build(&ds.x, &ds.labels, &flat_config).unwrap();
        let sharded = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();

        prop_assert_eq!(flat.num_batches(), n_batches);
        prop_assert_eq!(sharded.num_batches(), n_batches);
        // Both stores make the same memory/disk split decision.
        prop_assert_eq!(flat.spilled_batches(), sharded.spilled_batches());
        prop_assert_eq!(flat.total_bytes(), sharded.total_bytes());
        if budget_pct == 0 {
            prop_assert_eq!(flat.spilled_batches(), n_batches);
        }

        assert_roundtrip(&flat, &ds.x, &ds.labels, batch_rows);
        assert_roundtrip(&sharded, &ds.x, &ds.labels, batch_rows);

        // IO totals are exact: two sweeps read every spilled byte twice
        // (plus whatever the prefetcher read ahead but nobody consumed).
        let spilled_visits = 2 * flat.spilled_batches() as u64;
        let snap = flat.stats().snapshot();
        prop_assert_eq!(snap.disk_reads, spilled_visits);
        prop_assert_eq!(snap.bytes_read, 2 * flat.spilled_bytes() as u64);
        let snap = sharded.stats().snapshot_stable();
        snap.assert_consistent();
        prop_assert_eq!(snap.spill_requests,
                        if prefetch > 0 { spilled_visits } else { 0 });
        prop_assert_eq!(snap.prefetch_hits + snap.prefetch_misses,
                        if prefetch > 0 { spilled_visits } else { 0 });
        // Every spilled visit consumed one physical read.
        prop_assert!(snap.disk_reads >= spilled_visits);
    }
}
