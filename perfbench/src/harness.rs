//! Pieces the workloads share: CSV reading, the streaming-ingest loop,
//! the visit-timing provider wrapper, peak RSS and reference files.
//!
//! Everything here measures from outside the program: it times calls to
//! public functions of `toc_data`, `toc_formats` and `toc_ml`.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use toc_data::ingest::IngestStats;
use toc_data::{CsvStream, ShardedSpillStore, StoreIngest};
use toc_formats::container::ZoneMap;
use toc_formats::{pick_scheme, AnyBatch, EncodeOptions, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

use crate::record::Record;
use crate::trace::{self, span};

/// Stream every row of `path` into `f(features, label)`, where the label
/// is the last column. Each `next_row` call is one `csv.next_row` span.
/// Returns `(rows, bytes)`.
pub fn for_each_row(
    path: &Path,
    f: &mut dyn FnMut(&[f64], f64) -> std::io::Result<()>,
) -> std::io::Result<(u64, u64)> {
    let mut s = CsvStream::open(path).map_err(std::io::Error::other)?;
    loop {
        let next = {
            let _g = span("csv.next_row");
            s.next_row().map_err(std::io::Error::other)?
        };
        let Some((_, row)) = next else { break };
        let d = row.len() - 1;
        f(&row[..d], row[d])?;
    }
    if let Some((_, row)) = s.finish_partial().map_err(std::io::Error::other)? {
        let d = row.len() - 1;
        f(&row[..d], row[d])?;
    }
    Ok((s.rows_read() as u64, s.offset()))
}

/// Read the whole CSV as `(features, labels)`.
pub fn read_matrix(path: &Path) -> std::io::Result<(DenseMatrix, Vec<f64>)> {
    let mut data = Vec::new();
    let mut labels = Vec::new();
    let mut cols = 0;
    for_each_row(path, &mut |x, y| {
        cols = x.len();
        data.extend_from_slice(x);
        labels.push(y);
        Ok(())
    })?;
    Ok((DenseMatrix::from_vec(labels.len(), cols, data), labels))
}

/// Outcome of one streaming ingest, identical in shape for the untraced
/// and the traced ingest loop.
pub struct Ingested {
    pub csv_rows: u64,
    pub csv_bytes: u64,
    pub stats: IngestStats,
    /// Every `REGRET_EVERY`-th chunk with the scheme it got (traced only).
    pub regret_samples: Vec<(DenseMatrix, Scheme)>,
}

const REGRET_EVERY: u64 = 16;

/// CSV → `store`, in `chunk_rows` chunks, with `scheme` forced or (None)
/// picked per chunk. Untraced, this is `StoreIngest` itself. Traced, the
/// same steps `StoreIngest` takes are called one by one — zone map,
/// scheme pick, encode, serialize, append — so each gets its own span;
/// the orchestrator checks that both seal the same bytes.
pub fn ingest(
    path: &Path,
    store: &ShardedSpillStore,
    chunk_rows: usize,
    scheme: Option<Scheme>,
) -> std::io::Result<Ingested> {
    let opts = EncodeOptions::default();
    if !trace::enabled() {
        let mut ing = StoreIngest::new(store, chunk_rows, scheme, opts);
        let (csv_rows, csv_bytes) = for_each_row(path, &mut |x, y| ing.push_row(x, y))?;
        return Ok(Ingested {
            csv_rows,
            csv_bytes,
            stats: ing.finish()?,
            regret_samples: Vec::new(),
        });
    }
    let cols = store.num_features();
    let mut stage: Vec<f64> = Vec::with_capacity(chunk_rows * cols);
    let mut labels: Vec<f64> = Vec::with_capacity(chunk_rows);
    let mut stats = IngestStats::default();
    let mut regret_samples = Vec::new();
    let mut seal = |stage: &mut Vec<f64>, labels: &mut Vec<f64>| -> std::io::Result<()> {
        if labels.is_empty() {
            return Ok(());
        }
        let rows = labels.len();
        let g = span("ingest.seal");
        let dense = DenseMatrix::from_vec(rows, cols, std::mem::take(stage));
        {
            let _g = span("ingest.zone_map");
            black_box(ZoneMap::compute(&dense, opts.cla.sample_rows));
        }
        let picked = scheme.unwrap_or_else(|| {
            let _g = span("ingest.pick");
            pick_scheme(&dense, &Scheme::AUTO_SET, &opts)
        });
        let batch = {
            let _g = span("ingest.encode");
            picked.encode_with(&dense, &opts)
        };
        drop(g);
        let bytes = {
            let _g = span("ingest.to_bytes");
            batch.to_bytes()
        };
        {
            let _g = span("store.append");
            store.append_sealed(&bytes, std::mem::take(labels))?;
        }
        if stats.chunks % REGRET_EVERY == 0 {
            regret_samples.push((dense.clone(), picked));
        }
        note(&mut stats, picked, rows, bytes.len());
        *stage = dense.into_data();
        stage.clear();
        Ok(())
    };
    let (csv_rows, csv_bytes) = for_each_row(path, &mut |x, y| {
        stage.extend_from_slice(x);
        labels.push(y);
        if labels.len() == chunk_rows {
            seal(&mut stage, &mut labels)?;
        }
        Ok(())
    })?;
    seal(&mut stage, &mut labels)?;
    Ok(Ingested {
        csv_rows,
        csv_bytes,
        stats,
        regret_samples,
    })
}

fn note(stats: &mut IngestStats, scheme: Scheme, rows: usize, bytes: usize) {
    stats.rows += rows as u64;
    stats.chunks += 1;
    stats.encoded_bytes += bytes as u64;
    match stats.scheme_counts.iter_mut().find(|(s, _)| *s == scheme) {
        Some((_, n)) => *n += 1,
        None => stats.scheme_counts.push((scheme, 1)),
    }
}

/// Metric-name form of a scheme: lowercase letters and digits only.
pub fn scheme_key(s: Scheme) -> String {
    s.name()
        .to_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// Ingest counters as per-layer scalars: chunk counts per scheme and the
/// pick regret, i.e. the picked size over the smallest size an encode
/// with every candidate finds, averaged over the sampled chunks.
pub fn record_ingest(rec: &mut Record, ing: &Ingested) {
    rec.scalar("csv.rows", ing.csv_rows as f64);
    rec.scalar("csv.bytes", ing.csv_bytes as f64);
    rec.scalar("ingest.chunks", ing.stats.chunks as f64);
    for (s, n) in &ing.stats.scheme_counts {
        rec.scalar(format!("ingest.chunks_{}", scheme_key(*s)), *n as f64);
    }
    if !ing.regret_samples.is_empty() {
        let opts = EncodeOptions::default();
        let regret: f64 = ing
            .regret_samples
            .iter()
            .map(|(dense, picked)| {
                let size = |s: Scheme| s.encode_with(dense, &opts).size_bytes();
                let best = Scheme::AUTO_SET.iter().map(|&s| size(s)).min().unwrap_or(1);
                size(*picked) as f64 / best.max(1) as f64
            })
            .sum::<f64>()
            / ing.regret_samples.len() as f64;
        rec.scalar("ingest.pick_regret", regret);
    }
}

/// Provider wrapper that times every visit as the trainer sees it (read,
/// parse and the trainer's step). Traced, each visit is a `store.visit`
/// span whose children are the trainer's step (`ml.step`) and the
/// per-batch probes: a `Scheme::from_bytes` parse of the batch's
/// serialized form and one call of each kernel with a fixed operand.
pub struct Timed<'a> {
    inner: &'a dyn BatchProvider,
    pub visit_ms: RefCell<Vec<f64>>,
    pub rows: Cell<u64>,
    pub parse_bytes: Cell<u64>,
    pub kernel_calls: Cell<u64>,
    scratch: RefCell<Scratch>,
}

#[derive(Default)]
struct Scratch {
    v: Vec<f64>,
    u: Vec<f64>,
    m: DenseMatrix,
    out: Vec<f64>,
    out_m: DenseMatrix,
}

/// Columns of the fixed `matmat` operand.
const MATMAT_K: usize = 4;

impl<'a> Timed<'a> {
    pub fn new(inner: &'a dyn BatchProvider) -> Self {
        let cols = inner.num_features();
        let scratch = Scratch {
            v: vec![0.5; cols],
            m: DenseMatrix::from_vec(cols, MATMAT_K, vec![0.25; cols * MATMAT_K]),
            ..Default::default()
        };
        Self {
            inner,
            visit_ms: RefCell::new(Vec::new()),
            rows: Cell::new(0),
            parse_bytes: Cell::new(0),
            kernel_calls: Cell::new(0),
            scratch: RefCell::new(scratch),
        }
    }

    fn probe(&self, b: &AnyBatch) {
        let bytes = {
            let _g = span("probe.serialize");
            b.to_bytes()
        };
        {
            let _g = span("formats.parse");
            black_box(Scheme::from_bytes(&bytes).expect("a serialized batch parses back"));
        }
        self.parse_bytes
            .set(self.parse_bytes.get() + bytes.len() as u64);
        let s = &mut *self.scratch.borrow_mut();
        s.u.resize(b.rows(), 0.5);
        {
            let _g = span("kernel.matvec");
            b.matvec_into(&s.v, &mut s.out);
        }
        {
            let _g = span("kernel.vecmat");
            b.vecmat_into(&s.u, &mut s.out);
        }
        {
            let _g = span("kernel.matmat");
            b.matmat_into(&s.m, &mut s.out_m);
        }
        black_box((&s.out, &s.out_m));
        self.kernel_calls.set(self.kernel_calls.get() + 3);
    }
}

impl BatchProvider for Timed<'_> {
    fn num_batches(&self) -> usize {
        self.inner.num_batches()
    }

    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
        let t0 = Instant::now();
        {
            let _g = span("store.visit");
            self.inner.visit(idx, &mut |b, y| {
                if trace::enabled() {
                    self.probe(b);
                }
                let _g = span("ml.step");
                f(b, y);
                self.rows.set(self.rows.get() + y.len() as u64);
            });
        }
        self.visit_ms
            .borrow_mut()
            .push(t0.elapsed().as_secs_f64() * 1e3);
    }

    fn end_epoch(&self) {
        let _g = span("store.end_epoch");
        self.inner.end_epoch();
    }
}

/// Peak resident set size of this process so far, in KiB (`VmHWM`).
pub fn peak_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

pub fn write_f64s(path: &Path, v: &[f64]) -> std::io::Result<()> {
    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
    std::fs::write(path, bytes)
}

pub fn read_f64s(path: &Path) -> std::io::Result<Vec<f64>> {
    let bytes = std::fs::read(path)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .collect())
}

/// Largest absolute elementwise difference; infinite when the lengths
/// differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Bit-for-bit equality of two weight vectors.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-layer busy times from the spans, under their metric names: the
/// full duration for most spans, the self time for `store.visit` (the
/// store's own read and decode, without the step and probes it wraps).
pub fn record_spans(rec: &mut Record, spans: &[trace::Span]) {
    let names = trace::by_name(spans, None);
    let dur = |n: &str| names.get(n).map_or(0.0, |e| e.0 as f64);
    for (metric, span_name) in [
        ("csv.next_row_ns", "csv.next_row"),
        ("ingest.seal_ns", "ingest.seal"),
        ("ingest.zone_map_ns", "ingest.zone_map"),
        ("ingest.pick_ns", "ingest.pick"),
        ("ingest.encode_ns", "ingest.encode"),
        ("ingest.to_bytes_ns", "ingest.to_bytes"),
        ("store.append_ns", "store.append"),
        ("store.build_ns", "store.build"),
        ("formats.parse_ns", "formats.parse"),
        ("kernel.matvec_ns", "kernel.matvec"),
        ("kernel.vecmat_ns", "kernel.vecmat"),
        ("kernel.matmat_ns", "kernel.matmat"),
        ("ml.step_ns", "ml.step"),
    ] {
        rec.scalar(metric, dur(span_name));
    }
    let visit_self = names.get("store.visit").map_or(0.0, |e| e.1 as f64);
    rec.scalar("store.visit_self_ns", visit_self);
}

/// Blocking-lane accounting of a traced iteration: the summed self time
/// of every lane-0 span over the iteration's wall time, and the share of
/// the wall time left to the harness's container spans (`containers`)
/// rather than to a layer.
pub fn record_coverage(rec: &mut Record, spans: &[trace::Span], wall_ns: f64, containers: &[&str]) {
    let lane0 = trace::by_name(spans, Some(0));
    let total: u64 = lane0.values().map(|e| e.1).sum();
    let unattributed: u64 = containers
        .iter()
        .filter_map(|c| lane0.get(c))
        .map(|e| e.1)
        .sum();
    let share = total as f64 / wall_ns;
    rec.scalar("trace.blocking_self_share", share);
    rec.scalar("trace.unattributed_share", unattributed as f64 / wall_ns);
    rec.check(
        "trace.blocking_self_share",
        (share - 1.0).abs() <= 0.05,
        format!("blocking-lane self times sum to {share:.4} of the wall time"),
    );
}
