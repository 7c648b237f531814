//! Figure 11: test error rate as a function of wall-clock training time
//! on the mnist-like dataset, comparing our store+TOC pipeline (the
//! BismarckTOC analog) against DEN and CSR pipelines under a constrained
//! memory budget.
//!
//! Expected shape: with the budget binding, the TOC curve reaches any
//! given error level first because its batches stay in memory.

use toc_bench::{arg, Table};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_data::testing::{DeviceProfile, FaultPlan};
use toc_formats::{MatrixBatch, Scheme};
use toc_ml::mgd::{MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

/// Row-range view of a generated dataset (train/test split must share the
/// generation's motifs and labeling scorers).
fn split(ds: &toc_data::synth::Dataset, start: usize, end: usize) -> toc_data::synth::Dataset {
    toc_data::synth::Dataset {
        x: ds.x.slice_rows(start, end),
        labels: ds.labels[start..end].to_vec(),
        classes: ds.classes,
    }
}

fn main() {
    let rows: usize = arg("rows", 4000);
    let epochs: usize = arg("epochs", 6);
    let seed: u64 = arg("seed", 42);
    let mbps: f64 = arg("mbps", 150.0);
    let eval_rows = (rows / 5).max(1);
    let full = generate_preset(DatasetPreset::MnistLike, rows + eval_rows, seed);
    let ds = split(&full, 0, rows);
    let eval_ds = split(&full, rows, rows + eval_rows);
    let eval_batch = Scheme::Den.encode(&eval_ds.x);

    // Budget: 3x the TOC footprint (TOC resident, DEN/CSR spill).
    let budget: usize = ds
        .minibatches(250)
        .iter()
        .map(|(x, _)| Scheme::Toc.encode(x).size_bytes())
        .sum::<usize>()
        * 22
        / 10;

    println!("# Figure 11 — test error vs training time (mnist-like, {rows} rows)\n");
    for (wl_name, spec) in [
        (
            "LR",
            ModelSpec::OneVsRest {
                loss: LossKind::Logistic,
                classes: ds.classes,
            },
        ),
        (
            "NN",
            ModelSpec::NeuralNet {
                hidden: vec![32, 16],
                outputs: ds.classes,
            },
        ),
    ] {
        println!("## workload: {wl_name}");
        let mut table = Table::new(vec!["scheme", "epoch", "time", "error%"]);
        for scheme in [Scheme::Den, Scheme::Csr, Scheme::Toc] {
            let store = ShardedSpillStore::build(
                &ds.x,
                &ds.labels,
                &StoreConfig::new(scheme, 250, budget)
                    .with_shards(1)
                    .with_fault_plan(FaultPlan::device(vec![DeviceProfile::stable(mbps)])),
            )
            .expect("store");
            let trainer = Trainer::new(MgdConfig {
                epochs,
                lr: 0.2,
                record_curve: true,
                ..Default::default()
            });
            let report = trainer.train(&spec, &store, Some((&eval_batch, &eval_ds.labels)));
            for point in &report.curve {
                table.row(vec![
                    format!(
                        "{}{}",
                        scheme.name(),
                        if store.spilled_batches() > 0 { "*" } else { "" }
                    ),
                    point.epoch.to_string(),
                    format!("{:.2}s", point.elapsed.as_secs_f64()),
                    format!("{:.1}", point.error_rate * 100.0),
                ]);
            }
        }
        table.print();
        println!("(* = spilled to disk)\n");
    }
}
