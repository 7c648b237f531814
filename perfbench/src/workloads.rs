//! The three workloads. Each has a reference step, run once per
//! benchmark run by the orchestrator (untimed), and an iteration, run in
//! a fresh child process per measured repetition: set up a store from
//! the CSV, train, read the peak RSS, then check the outputs.
//!
//! Every store is set up as in production: default shards, no simulated
//! device bandwidth, no fault plan, no device profiles. Spill files are
//! re-read through the OS page cache, so read times are the host's
//! page-cache latency, not a disk's.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use toc_data::ingest::EncodeWorkspace;
use toc_data::serve::{JobOutcome, JobServer, JobSpec, ServeConfig};
use toc_data::{ShardedSpillStore, StoreConfig};
use toc_formats::{EncodeOptions, MatrixBatch, Scheme};
use toc_ml::mgd::{BatchProvider, MemoryProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

use crate::harness::{self, Timed};
use crate::record::Record;
use crate::trace::{self, span};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MnistSpilled,
    DriftFollow,
    CensusServe,
}

pub const ALL: [Workload; 3] = [
    Workload::MnistSpilled,
    Workload::DriftFollow,
    Workload::CensusServe,
];

// mnist_spilled: every batch on disk, TOC forced, 10-class one-vs-rest
// logistic regression.
const MNIST_ROWS: usize = 10_000;
const MNIST_COLS: usize = 784;
const MNIST_CHUNK: usize = 250;
const MNIST_EPOCHS: usize = 3;
const MNIST_CLASSES: usize = 10;
/// At 0.1 some seeds' SGD trajectories amplify last-bit rounding
/// differences between summation orders: on seed 103 CVI, DVI and TOC
/// all end 5e-8 to 1.2e-7 away from DEN after 3 epochs while CSR, which
/// sums like DEN, matches it exactly. At 0.02 the largest TOC-vs-DEN
/// difference over 40 seeds is 4e-12, so the 1e-8 parity check tests
/// the kernels rather than the trajectory's sensitivity.
const MNIST_LR: f64 = 0.02;

// drift_follow: auto scheme pick per 100-row chunk on a producer thread,
// online logistic regression on the main thread, bounded pending chunks.
const DRIFT_ROWS: usize = 96_000;
const DRIFT_COLS: usize = 12;
const DRIFT_CHUNK: usize = 100;
const DRIFT_WINDOW: usize = 50;
const DRIFT_MAX_PENDING: usize = 16;

// census_serve: half the batches resident, a cache smaller than the
// spilled bytes, LR/SVM/NN jobs with two admitted at a time.
const CENSUS_ROWS: usize = 40_000;
const CENSUS_COLS: usize = 68;
const CENSUS_CHUNK: usize = 250;
/// Epochs of the linear jobs; an NN job visits a batch about four times
/// as slowly, so it runs a quarter of them. Jobs of about equal length
/// keep the queue waits, and so the median job time, from jumping
/// between admission orders.
const CENSUS_LINEAR_EPOCHS: usize = 8;
const CENSUS_NN_EPOCHS: usize = 2;
const CENSUS_MAX_CONCURRENT: usize = 2;
/// Indices of the jobs re-run solo for the bit-identity check: one of
/// each model family.
const CENSUS_SAMPLED: [usize; 3] = [0, 1, 2];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::MnistSpilled => "mnist_spilled",
            Workload::DriftFollow => "drift_follow",
            Workload::CensusServe => "census_serve",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Write the seeded CSV; returns its size in bytes.
    pub fn generate(self, csv: &Path, seed: u64) -> std::io::Result<u64> {
        match self {
            Workload::MnistSpilled => crate::gen::mnist(csv, MNIST_ROWS, seed),
            Workload::DriftFollow => crate::gen::drifting(csv, DRIFT_ROWS, DRIFT_COLS, seed),
            Workload::CensusServe => crate::gen::census(csv, CENSUS_ROWS, seed),
        }
    }

    /// Untimed reference outputs for the iterations to check against,
    /// written into `dir`. Returns the extra `key=value` parameters every
    /// iteration receives.
    pub fn reference(self, csv: &Path, dir: &Path) -> std::io::Result<Vec<String>> {
        match self {
            Workload::MnistSpilled => mnist_reference(csv, dir),
            Workload::DriftFollow => drift_reference(csv, dir),
            Workload::CensusServe => census_reference(csv, dir),
        }
    }

    pub fn iterate(self, ctx: &Ctx) -> std::io::Result<Record> {
        match self {
            Workload::MnistSpilled => mnist_iteration(ctx),
            Workload::DriftFollow => drift_iteration(ctx),
            Workload::CensusServe => census_iteration(ctx),
        }
    }
}

/// What an iteration child is given.
pub struct Ctx {
    pub csv: PathBuf,
    /// The run's work directory: reference files, spill directories.
    pub dir: PathBuf,
    pub iteration: usize,
    pub params: Vec<(String, String)>,
    /// Where a traced iteration writes its spans.
    pub trace_file: PathBuf,
}

impl Ctx {
    fn param(&self, key: &str) -> usize {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("missing numeric parameter {key}"))
    }

    fn spill_dir(&self) -> PathBuf {
        self.dir.join(format!("spill-{}", self.iteration))
    }
}

fn mgd(epochs: usize, lr: f64, seed: u64) -> MgdConfig {
    MgdConfig {
        epochs,
        lr,
        seed,
        record_curve: false,
        shuffle_batches: false,
    }
}

/// Split a dense matrix into `chunk`-row batches under `encode`.
fn batches(
    x: &toc_linalg::DenseMatrix,
    y: &[f64],
    chunk: usize,
    encode: &mut dyn FnMut(&toc_linalg::DenseMatrix) -> toc_formats::AnyBatch,
) -> Vec<(toc_formats::AnyBatch, Vec<f64>)> {
    (0..x.rows())
        .step_by(chunk)
        .map(|r0| {
            let r1 = (r0 + chunk).min(x.rows());
            (encode(&x.slice_rows(r0, r1)), y[r0..r1].to_vec())
        })
        .collect()
}

/// Record the end-to-end scalars every workload reports.
fn record_common(rec: &mut Record, t: &Phases, dense_bytes: f64, stored_bytes: f64) {
    rec.scalar("setup_s", t.setup_s);
    rec.scalar("train_s", t.train_s);
    rec.scalar("total_s", t.total_s);
    rec.scalar("peak_rss_kb", t.peak_rss_kb);
    rec.scalar("dense_bytes", dense_bytes);
    rec.scalar("stored_bytes", stored_bytes);
}

struct Phases {
    setup_s: f64,
    train_s: f64,
    total_s: f64,
    peak_rss_kb: f64,
}

fn check_count(rec: &mut Record, name: &str, got: u64, want: u64) {
    rec.check(name, got == want, format!("got {got}, expected {want}"));
}

/// Per-layer times and blocking-lane coverage of a traced iteration; its
/// spans are written out once the iteration is over.
fn finish_trace(rec: &mut Record, ctx: &Ctx, wall_s: f64, containers: &[&str]) {
    if !trace::enabled() {
        return;
    }
    let spans = trace::take();
    harness::record_spans(rec, &spans);
    harness::record_coverage(rec, &spans, wall_s * 1e9, containers);
    if let Err(e) = trace::write_tsv(&spans, &ctx.trace_file) {
        eprintln!("could not write {}: {e}", ctx.trace_file.display());
    }
}

// ---------------------------------------------------------------------------
// mnist_spilled

fn mnist_spec() -> ModelSpec {
    ModelSpec::OneVsRest {
        loss: LossKind::Logistic,
        classes: MNIST_CLASSES,
    }
}

fn mnist_reference(csv: &Path, dir: &Path) -> std::io::Result<Vec<String>> {
    // The parity rule of the repository's integration suite: training on
    // DEN batches held in memory gives the same weights within 1e-8.
    let (x, y) = harness::read_matrix(csv)?;
    let provider = MemoryProvider {
        batches: batches(&x, &y, MNIST_CHUNK, &mut |m| Scheme::Den.encode(m)),
        features: x.cols(),
    };
    let report = Trainer::new(mgd(MNIST_EPOCHS, MNIST_LR, 7)).train(&mnist_spec(), &provider, None);
    harness::write_f64s(&dir.join("ref-weights.bin"), &report.model.weights())?;
    Ok(vec![format!("rows={}", x.rows())])
}

fn mnist_iteration(ctx: &Ctx) -> std::io::Result<Record> {
    let rows = ctx.param("rows") as u64;
    let mut rec = Record::default();
    let t0 = Instant::now();
    let root = span("iteration");
    let setup = span("setup");
    let store = {
        let _g = span("store.open");
        let config = StoreConfig::new(Scheme::Toc, MNIST_CHUNK, 0).with_spill_dir(ctx.spill_dir());
        ShardedSpillStore::open_streaming(MNIST_COLS, &config)?
    };
    let ing = harness::ingest(&ctx.csv, &store, MNIST_CHUNK, Some(Scheme::Toc))?;
    drop(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let timed = Timed::new(&store);
    let report = {
        let _t = span("train");
        let _g = span("ml.train");
        Trainer::new(mgd(MNIST_EPOCHS, MNIST_LR, 7)).train(&mnist_spec(), &timed, None)
    };
    let train_s = t1.elapsed().as_secs_f64();
    drop(root);
    let total_s = t0.elapsed().as_secs_f64();
    let phases = Phases {
        setup_s,
        train_s,
        total_s,
        peak_rss_kb: harness::peak_rss_kb(),
    };

    // Untimed from here on.
    let dense_bytes = (rows * MNIST_COLS as u64 * 8) as f64;
    let stored = store.total_bytes() as u64 + store.appended_bytes();
    record_common(&mut rec, &phases, dense_bytes, stored as f64);
    let visits = record_trainer(&mut rec, &timed, train_s);
    let chunks = check_ingest(&mut rec, &ing, rows, MNIST_CHUNK);
    check_count(
        &mut rec,
        "train.visits",
        visits,
        chunks * MNIST_EPOCHS as u64,
    );
    let reference = harness::read_f64s(&ctx.dir.join("ref-weights.bin"))?;
    let diff = harness::max_abs_diff(&reference, &report.model.weights());
    rec.check(
        "weights.vs_den_reference",
        diff < 1e-8,
        format!("max weight diff {diff:e} against in-memory DEN"),
    );

    if trace::enabled() {
        harness::record_ingest(&mut rec, &ing);
        record_store_io(&mut rec, &store, &timed);
    }
    finish_trace(&mut rec, ctx, total_s, &["iteration", "setup", "train"]);
    drop(store);
    let _ = std::fs::remove_dir_all(ctx.spill_dir());
    Ok(rec)
}

/// Visit latencies, rows stepped and the job time of a workload whose
/// single trainer visits through `timed`. Returns the visit count.
fn record_trainer(rec: &mut Record, timed: &Timed, train_s: f64) -> u64 {
    let visits = timed.visit_ms.borrow().clone();
    let n = visits.len() as u64;
    rec.scalar("rows_stepped", timed.rows.get() as f64);
    rec.scalar("jobs", 1.0);
    rec.samples("visit_ms", visits);
    rec.samples("job_s", vec![train_s]);
    rec.scalar("attempted_ops", (n + 1) as f64);
    n
}

/// Check that ingest sealed every input row into `chunk`-row chunks;
/// returns the chunk count.
fn check_ingest(rec: &mut Record, ing: &harness::Ingested, rows: u64, chunk: usize) -> u64 {
    // Untraced iterations ingest through StoreIngest itself; the
    // orchestrator checks the traced ingest loop sealed the same bytes.
    rec.scalar("ingest.encoded_bytes", ing.stats.encoded_bytes as f64);
    let chunks = rows.div_ceil(chunk as u64);
    check_count(rec, "ingest.rows", ing.stats.rows, rows);
    check_count(rec, "ingest.chunks", ing.stats.chunks, chunks);
    chunks
}

fn record_store_io(rec: &mut Record, store: &ShardedSpillStore, timed: &Timed) {
    let io = store.stats().snapshot_stable();
    rec.scalar("store.bytes_written", store.appended_bytes() as f64);
    rec.scalar("store.ingest_stall_ns", io.ingest_stall_ns as f64);
    rec.scalar("store.peak_pending", store.peak_pending_appends() as f64);
    rec.scalar("store.visits", timed.visit_ms.borrow().len() as f64);
    rec.scalar("store.disk_reads", io.disk_reads as f64);
    rec.scalar("store.bytes_read", io.bytes_read as f64);
    rec.scalar("formats.parse_bytes", timed.parse_bytes.get() as f64);
    rec.scalar("kernel.calls", timed.kernel_calls.get() as f64);
    rec.scalar("ml.steps", timed.visit_ms.borrow().len() as f64);
}

// ---------------------------------------------------------------------------
// drift_follow

fn drift_spec() -> ModelSpec {
    ModelSpec::Linear(LossKind::Logistic)
}

fn drift_reference(csv: &Path, dir: &Path) -> std::io::Result<Vec<String>> {
    // The same chunks sealed by the ingest workspace, materialized in
    // memory, then the same online pass over them.
    let (x, y) = harness::read_matrix(csv)?;
    let opts = EncodeOptions::default();
    let mut ws = EncodeWorkspace::new(x.cols(), DRIFT_CHUNK);
    let provider = MemoryProvider {
        batches: batches(&x, &y, DRIFT_CHUNK, &mut |m| {
            for r in 0..m.rows() {
                ws.push_row(m.row(r));
            }
            ws.seal(None, &opts).expect("a staged chunk seals").batch
        }),
        features: x.cols(),
    };
    let report = Trainer::new(mgd(1, 0.05, 11)).train_online(
        &drift_spec(),
        &provider,
        DRIFT_WINDOW,
        &mut || false,
    );
    harness::write_f64s(&dir.join("ref-weights.bin"), &report.model.weights())?;
    Ok(vec![format!("rows={}", x.rows())])
}

fn drift_iteration(ctx: &Ctx) -> std::io::Result<Record> {
    let rows = ctx.param("rows") as u64;
    let mut rec = Record::default();
    let t0 = Instant::now();
    let root = span("iteration");
    let store = {
        let _g = span("store.open");
        let config = StoreConfig::new(Scheme::Toc, DRIFT_CHUNK, 0)
            .with_spill_dir(ctx.spill_dir())
            .with_max_pending(DRIFT_MAX_PENDING);
        ShardedSpillStore::open_streaming(DRIFT_COLS, &config)?
    };
    let done = AtomicBool::new(false);
    let timed = Timed::new(&store);
    let (ingested, setup_s, report, train_s) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            trace::set_lane(1);
            // Release the trainer whatever happens to the ingest.
            struct Done<'a>(&'a AtomicBool);
            impl Drop for Done<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let out = {
                let _done = Done(&done);
                let _g = span("setup");
                harness::ingest(&ctx.csv, &store, DRIFT_CHUNK, None)
            };
            let setup_s = t0.elapsed().as_secs_f64();
            trace::flush();
            (out, setup_s)
        });
        let t1 = Instant::now();
        let report = {
            let _t = span("train");
            let _g = span("ml.train_online");
            Trainer::new(mgd(1, 0.05, 11)).train_online(
                &drift_spec(),
                &timed,
                DRIFT_WINDOW,
                &mut || !done.load(Ordering::Acquire),
            )
        };
        let train_s = t1.elapsed().as_secs_f64();
        let (ingested, setup_s) = producer.join().expect("ingest thread panicked");
        (ingested, setup_s, report, train_s)
    });
    drop(root);
    let total_s = t0.elapsed().as_secs_f64();
    let ing = ingested?;
    let phases = Phases {
        setup_s,
        train_s,
        total_s,
        peak_rss_kb: harness::peak_rss_kb(),
    };

    let dense_bytes = (rows * DRIFT_COLS as u64 * 8) as f64;
    let stored = store.total_bytes() as u64 + store.appended_bytes();
    record_common(&mut rec, &phases, dense_bytes, stored as f64);
    record_trainer(&mut rec, &timed, train_s);
    let chunks = check_ingest(&mut rec, &ing, rows, DRIFT_CHUNK);
    check_count(&mut rec, "online.consumed", report.consumed as u64, chunks);
    let reference = harness::read_f64s(&ctx.dir.join("ref-weights.bin"))?;
    rec.check(
        "weights.vs_materialized",
        harness::bit_identical(&reference, &report.model.weights()),
        "online weights bit-identical to the materialized online pass",
    );

    if trace::enabled() {
        harness::record_ingest(&mut rec, &ing);
        record_store_io(&mut rec, &store, &timed);
        let wait = train_s - report.train_time.as_secs_f64();
        rec.scalar("ml.wait_ns", wait * 1e9);
        rec.scalar(
            "ml.windows_during_ingest",
            report.windows_during_ingest as f64,
        );
    }
    finish_trace(&mut rec, ctx, total_s, &["iteration", "train"]);
    drop(store);
    let _ = std::fs::remove_dir_all(ctx.spill_dir());
    Ok(rec)
}

// ---------------------------------------------------------------------------
// census_serve

fn census_jobs() -> Vec<JobSpec> {
    let families = [
        (
            "lr",
            ModelSpec::Linear(LossKind::Logistic),
            CENSUS_LINEAR_EPOCHS,
        ),
        (
            "svm",
            ModelSpec::Linear(LossKind::Hinge),
            CENSUS_LINEAR_EPOCHS,
        ),
        (
            "nn",
            ModelSpec::NeuralNet {
                hidden: vec![16],
                outputs: 1,
            },
            CENSUS_NN_EPOCHS,
        ),
    ];
    (0..6)
        .map(|i| {
            let (name, spec, epochs) = &families[i % families.len()];
            JobSpec::new(
                format!("{name}{i}"),
                spec.clone(),
                mgd(*epochs, 0.05, 100 + i as u64),
            )
        })
        .collect()
}

fn census_config(spill_dir: PathBuf, budget: usize) -> StoreConfig {
    StoreConfig::new(Scheme::Toc, CENSUS_CHUNK, budget).with_spill_dir(spill_dir)
}

fn census_reference(csv: &Path, dir: &Path) -> std::io::Result<Vec<String>> {
    let (x, y) = harness::read_matrix(csv)?;
    // Size the budget so about half the encoded batches stay resident,
    // and the cache to half of what spills.
    let total: usize = batches(&x, &y, CENSUS_CHUNK, &mut |m| Scheme::Toc.encode(m))
        .iter()
        .map(|(b, _)| b.size_bytes())
        .sum();
    let budget = total / 2;
    let config = census_config(dir.join("spill-ref"), budget);
    let store = Arc::new(ShardedSpillStore::build(&x, &y, &config)?);
    let cache = store.spilled_bytes() / 2;
    let jobs = census_jobs();
    for i in CENSUS_SAMPLED {
        let server = JobServer::new(
            Arc::clone(&store),
            ServeConfig {
                max_concurrent: CENSUS_MAX_CONCURRENT,
                cache_bytes: cache,
            },
        );
        let solo = server.run(vec![jobs[i].clone()]);
        harness::write_f64s(&dir.join(format!("ref-job{i}.bin")), &solo[0].weights)?;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir.join("spill-ref"));
    Ok(vec![
        format!("rows={}", x.rows()),
        format!("budget={budget}"),
        format!("cache={cache}"),
    ])
}

fn census_iteration(ctx: &Ctx) -> std::io::Result<Record> {
    let rows = ctx.param("rows") as u64;
    let budget = ctx.param("budget");
    let cache = ctx.param("cache");
    let mut rec = Record::default();
    let t0 = Instant::now();
    let root = span("iteration");
    let setup = span("setup");
    let (x, y) = harness::read_matrix(&ctx.csv)?;
    let store = {
        let _g = span("store.build");
        Arc::new(ShardedSpillStore::build(
            &x,
            &y,
            &census_config(ctx.spill_dir(), budget),
        )?)
    };
    drop((x, y));
    drop(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let server = JobServer::new(
        Arc::clone(&store),
        ServeConfig {
            max_concurrent: CENSUS_MAX_CONCURRENT,
            cache_bytes: cache,
        },
    );
    let jobs = census_jobs();
    let epochs: Vec<u64> = jobs.iter().map(|j| j.config.epochs as u64).collect();
    let outcomes: Vec<JobOutcome> = {
        let _t = span("train");
        let _g = span("serve.run");
        server.run(jobs)
    };
    let train_s = t1.elapsed().as_secs_f64();
    drop(root);
    let total_s = t0.elapsed().as_secs_f64();
    let phases = Phases {
        setup_s,
        train_s,
        total_s,
        peak_rss_kb: harness::peak_rss_kb(),
    };

    let dense_bytes = (rows * CENSUS_COLS as u64 * 8) as f64;
    let stored = store.total_bytes() as u64 + store.appended_bytes();
    record_common(&mut rec, &phases, dense_bytes, stored as f64);
    let batches_per_epoch = store.num_batches() as u64;
    let rows_stepped = outcomes.iter().map(|o| o.batches_visited).sum::<u64>() as f64 * rows as f64
        / batches_per_epoch as f64;
    rec.scalar("rows_stepped", rows_stepped);
    rec.scalar("jobs", outcomes.len() as f64);
    // Visits happen on the server's job threads, out of the harness's
    // reach: per-visit latency is sampled per job as its train time over
    // its visits.
    rec.samples(
        "visit_ms",
        outcomes
            .iter()
            .map(|o| o.train_time.as_secs_f64() * 1e3 / o.batches_visited.max(1) as f64)
            .collect(),
    );
    rec.samples(
        "job_s",
        outcomes
            .iter()
            .map(|o| (o.queue_wait + o.train_time).as_secs_f64())
            .collect(),
    );
    let visits: u64 = outcomes.iter().map(|o| o.batches_visited).sum();
    rec.scalar("attempted_ops", (visits + outcomes.len() as u64) as f64);

    check_count(
        &mut rec,
        "serve.jobs",
        outcomes.len() as u64,
        epochs.len() as u64,
    );
    for (o, e) in outcomes.iter().zip(&epochs) {
        check_count(
            &mut rec,
            &format!("serve.visits.{}", o.name),
            o.batches_visited,
            batches_per_epoch * e,
        );
    }
    for i in CENSUS_SAMPLED {
        let reference = harness::read_f64s(&ctx.dir.join(format!("ref-job{i}.bin")))?;
        rec.check(
            &format!("weights.{}_vs_solo", outcomes[i].name),
            harness::bit_identical(&reference, &outcomes[i].weights),
            "concurrent job bit-identical to its solo run",
        );
    }

    if trace::enabled() {
        let io = store.stats().snapshot_stable();
        let sum = |f: &dyn Fn(&JobOutcome) -> f64| outcomes.iter().map(f).sum::<f64>();
        rec.scalar(
            "serve.queue_wait_ns",
            sum(&|o| o.queue_wait.as_nanos() as f64),
        );
        rec.scalar("serve.qos_wait_ns", sum(&|o| o.qos_wait.as_nanos() as f64));
        rec.scalar("serve.train_ns", sum(&|o| o.train_time.as_nanos() as f64));
        let hits = sum(&|o| o.cache_hits as f64);
        let misses = sum(&|o| o.cache_misses as f64);
        rec.scalar("serve.cache_hits", hits);
        rec.scalar("serve.cache_misses", misses);
        rec.scalar("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        rec.scalar("serve.cache_evictions", server.cache().evictions() as f64);
        rec.scalar("serve.cache_rejected", server.cache().rejected() as f64);
        rec.scalar("serve.peak_concurrency", server.peak_concurrency() as f64);
        rec.scalar("store.visits", visits as f64);
        rec.scalar("store.disk_reads", io.disk_reads as f64);
        rec.scalar("store.bytes_read", io.bytes_read as f64);
        rec.scalar("ml.steps", visits as f64);
        rec.scalar("csv.rows", rows as f64);
        rec.scalar(
            "csv.bytes",
            std::fs::metadata(&ctx.csv).map_or(0, |m| m.len()) as f64,
        );
    }
    finish_trace(&mut rec, ctx, total_s, &["iteration", "setup", "train"]);
    drop(server);
    drop(store);
    let _ = std::fs::remove_dir_all(ctx.spill_dir());
    Ok(rec)
}
