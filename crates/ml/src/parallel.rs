//! Synchronous data-parallel NN training (the "classical way" of Dean et
//! al. the paper cites for its NN workloads, §5.3): each round, `workers`
//! threads compute gradients for distinct mini-batches against the same
//! snapshot of the weights; the averaged update is then applied once.
//!
//! Each worker owns a persistent `WorkerSlot`: a weight replica, an
//! [`ExecWorkspace`] and delta buffers, all allocated on the worker's
//! first round and reused every round thereafter — no per-round cloning
//! of the model and zero steady-state heap allocation in the gradient
//! path. [`ParallelReport::workspace_allocs`] /
//! [`ParallelReport::workspace_reuses`] expose the reuse discipline so
//! tests can assert it.

use crate::mgd::{targets_for_nn_into, BatchProvider, MgdConfig};
use crate::models::NeuralNet;
use crate::workspace::ExecWorkspace;
use std::time::{Duration, Instant};
use toc_linalg::DenseMatrix;

/// Outcome of a data-parallel training run.
#[derive(Debug)]
pub struct ParallelReport {
    /// Total wall-clock training time.
    pub train_time: Duration,
    /// Synchronous rounds executed (each applies one averaged update).
    pub rounds: usize,
    /// Worker executions that had to allocate their slot (first round per
    /// worker).
    pub workspace_allocs: usize,
    /// Worker executions that reused an already-allocated slot.
    pub workspace_reuses: usize,
}

/// Persistent per-worker state: replica, workspace and delta buffers live
/// across rounds and epochs; only the first round allocates.
#[derive(Default)]
struct WorkerSlot {
    replica: Option<NeuralNet>,
    ws: ExecWorkspace,
    targets: DenseMatrix,
    /// Weight delta this worker's batch induced, per layer.
    dw: Vec<DenseMatrix>,
    /// Bias delta per layer.
    db: Vec<Vec<f64>>,
    allocs: usize,
    reuses: usize,
}

impl WorkerSlot {
    /// Compute the delta mini-batch `idx` induces on a snapshot of
    /// `master`, into this slot's persistent buffers.
    fn run(&mut self, master: &NeuralNet, data: &(dyn BatchProvider + Sync), idx: usize, lr: f64) {
        match &mut self.replica {
            Some(r) => {
                // Sync the persistent replica to the snapshot in place.
                for (rw, mw) in r.weights.iter_mut().zip(&master.weights) {
                    rw.data_mut().copy_from_slice(mw.data());
                }
                for (rb, mb) in r.biases.iter_mut().zip(&master.biases) {
                    rb.copy_from_slice(mb);
                }
                self.reuses += 1;
            }
            None => {
                self.replica = Some(master.clone());
                self.dw = master
                    .weights
                    .iter()
                    .map(|w| DenseMatrix::zeros(w.rows(), w.cols()))
                    .collect();
                self.db = master.biases.iter().map(|b| vec![0.0; b.len()]).collect();
                self.allocs += 1;
            }
        }
        let Self {
            replica,
            ws,
            targets,
            ..
        } = self;
        let replica = replica.as_mut().expect("replica just ensured");
        let mut ran = false;
        data.visit(idx, &mut |batch, labels| {
            targets_for_nn_into(labels, replica.outputs, targets);
            replica.update_batch_ws(batch, targets, lr, ws);
            ran = true;
        });
        assert!(ran, "provider must call the visitor");
        // delta = stepped replica − snapshot, into the persistent buffers.
        for ((d, after), before) in self
            .dw
            .iter_mut()
            .zip(&replica.weights)
            .zip(&master.weights)
        {
            for ((dv, &a), &b) in d.data_mut().iter_mut().zip(after.data()).zip(before.data()) {
                *dv = a - b;
            }
        }
        for ((d, after), before) in self.db.iter_mut().zip(&replica.biases).zip(&master.biases) {
            for ((dv, &a), &b) in d.iter_mut().zip(after).zip(before) {
                *dv = a - b;
            }
        }
    }
}

/// Train `nn` with synchronous data parallelism. Returns total train time.
///
/// Convenience wrapper over [`train_nn_parallel_report`].
pub fn train_nn_parallel(
    nn: &mut NeuralNet,
    data: &(dyn BatchProvider + Sync),
    config: &MgdConfig,
    workers: usize,
) -> Duration {
    train_nn_parallel_report(nn, data, config, workers).train_time
}

/// [`train_nn_parallel`] with the full [`ParallelReport`].
///
/// Deterministic for a fixed `(model seed, config, workers)`: deltas land
/// in per-worker buffers and are applied in worker order after the
/// round's barrier, so thread scheduling never changes the result.
pub fn train_nn_parallel_report(
    nn: &mut NeuralNet,
    data: &(dyn BatchProvider + Sync),
    config: &MgdConfig,
    workers: usize,
) -> ParallelReport {
    assert!(workers >= 1);
    let mut slots: Vec<WorkerSlot> = (0..workers).map(|_| WorkerSlot::default()).collect();
    let mut train_time = Duration::ZERO;
    let mut rounds = 0usize;
    for _ in 0..config.epochs {
        let t0 = Instant::now();
        let mut next = 0usize;
        while next < data.num_batches() {
            let n_round = workers.min(data.num_batches() - next);
            let active = &mut slots[..n_round];
            {
                // Workers see the same immutable snapshot of the weights.
                let master: &NeuralNet = nn;
                std::thread::scope(|scope| {
                    for (w, slot) in active.iter_mut().enumerate() {
                        let idx = next + w;
                        scope.spawn(move || slot.run(master, data, idx, config.lr));
                    }
                });
            }
            // Apply the averaged deltas in worker order (deterministic).
            let k = n_round as f64;
            for slot in active.iter() {
                for (l, d) in slot.dw.iter().enumerate() {
                    let w = nn.weights[l].data_mut();
                    for (wv, dv) in w.iter_mut().zip(d.data()) {
                        *wv += dv / k;
                    }
                }
                for (l, d) in slot.db.iter().enumerate() {
                    for (bv, dv) in nn.biases[l].iter_mut().zip(d) {
                        *bv += dv / k;
                    }
                }
            }
            next += n_round;
            rounds += 1;
        }
        train_time += t0.elapsed();
        // Same epoch-boundary feedback the serial trainer gives (adaptive
        // spill stores rebalance here); excluded from train_time.
        data.end_epoch();
    }
    ParallelReport {
        train_time,
        rounds,
        workspace_allocs: slots.iter().map(|s| s.allocs).sum(),
        workspace_reuses: slots.iter().map(|s| s.reuses).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgd::{targets_for_nn, MemoryProvider};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use toc_formats::Scheme;
    use toc_linalg::DenseMatrix;

    fn provider(n: usize, d: usize, rows: usize) -> (MemoryProvider, DenseMatrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(8);
        let truth: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = DenseMatrix::zeros(n, d);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let mut f = 0.0;
            #[allow(clippy::needless_range_loop)] // c indexes x, truth in lockstep
            for c in 0..d {
                let v = if rng.gen::<f64>() < 0.5 {
                    (rng.gen_range(1..4) as f64) * 0.5
                } else {
                    0.0
                };
                x.set(r, c, v);
                f += v * truth[c];
            }
            y.push(if f >= 0.0 { 1.0 } else { -1.0 });
        }
        let mut batches = Vec::new();
        let mut s = 0;
        while s < n {
            let e = (s + rows).min(n);
            batches.push((Scheme::Toc.encode(&x.slice_rows(s, e)), y[s..e].to_vec()));
            s = e;
        }
        (
            MemoryProvider {
                batches,
                features: d,
            },
            x,
            y,
        )
    }

    #[test]
    fn parallel_training_learns() {
        let (p, x, y) = provider(400, 8, 40);
        let mut nn = NeuralNet::new(8, &[16], 1, 4);
        let config = MgdConfig {
            epochs: 60,
            lr: 0.6,
            ..Default::default()
        };
        train_nn_parallel(&mut nn, &p, &config, 4);
        let eval = Scheme::Den.encode(&x);
        let targets = targets_for_nn(&y, 1);
        let acc = nn.accuracy(&eval, &targets);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn single_worker_matches_sequential() {
        // workers = 1 must equal plain sequential MGD exactly.
        let (p, _, _) = provider(100, 6, 25);
        let config = MgdConfig {
            epochs: 3,
            lr: 0.4,
            ..Default::default()
        };
        let mut a = NeuralNet::new(6, &[8], 1, 7);
        let mut b = a.clone();
        train_nn_parallel(&mut a, &p, &config, 1);
        for _ in 0..config.epochs {
            for i in 0..p.num_batches() {
                p.visit(i, &mut |batch, labels| {
                    let t = targets_for_nn(labels, 1);
                    b.update_batch(batch, &t, config.lr);
                });
            }
        }
        for (wa, wb) in a.weights.iter().zip(&b.weights) {
            assert!(wa.max_abs_diff(wb) < 1e-12);
        }
    }

    #[test]
    fn parallel_training_is_deterministic() {
        // Same seed and worker count ⇒ bitwise-identical weights, no
        // matter how the OS schedules the worker threads: deltas are
        // applied in worker order after each round's barrier.
        let (p, _, _) = provider(200, 8, 20);
        let config = MgdConfig {
            epochs: 4,
            lr: 0.5,
            ..Default::default()
        };
        for workers in [1usize, 4] {
            let run = || {
                let mut nn = NeuralNet::new(8, &[12], 1, 5);
                train_nn_parallel(&mut nn, &p, &config, workers);
                nn
            };
            let a = run();
            let b = run();
            for (wa, wb) in a.weights.iter().zip(&b.weights) {
                assert_eq!(wa.data(), wb.data(), "workers={workers}");
            }
            for (ba, bb) in a.biases.iter().zip(&b.biases) {
                assert_eq!(ba, bb, "workers={workers}");
            }
        }
    }

    #[test]
    fn workspace_reuse_no_per_round_allocation() {
        // 8 batches × 5 epochs = 40 worker executions; each of the 4
        // slots allocates its replica/workspace/delta buffers exactly
        // once, every later execution reuses them.
        let (p, _, _) = provider(160, 6, 20);
        assert_eq!(p.num_batches(), 8);
        let config = MgdConfig {
            epochs: 5,
            lr: 0.3,
            ..Default::default()
        };
        let mut nn = NeuralNet::new(6, &[8], 1, 11);
        let report = train_nn_parallel_report(&mut nn, &p, &config, 4);
        assert_eq!(report.rounds, 10); // ceil(8 / 4) rounds × 5 epochs
        assert_eq!(report.workspace_allocs, 4);
        assert_eq!(report.workspace_reuses, 40 - 4);
        assert!(report.train_time > Duration::ZERO);
    }
}
