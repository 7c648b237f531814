#![forbid(unsafe_code)]
//! # toc-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p toc-bench --release --bin <name> [-- --key=value ...]`),
//! plus Criterion benches for the microbenchmark figures. This library
//! holds the shared plumbing: timing, aligned table printing, command-line
//! overrides, and the end-to-end MGD runner used by Tables 6–7 and
//! Figures 9–10.

use std::time::{Duration, Instant};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::Dataset;
use toc_data::testing::{DeviceProfile, FaultPlan};
use toc_formats::Scheme;
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

/// Time a closure once.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Average wall time of `f` over enough iterations to exceed ~20 ms
/// (bounded by `max_iters`), after one warm-up call.
pub fn time_avg<R>(max_iters: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut iters = 0usize;
    let t0 = Instant::now();
    while iters < max_iters && (iters < 3 || t0.elapsed() < Duration::from_millis(20)) {
        std::hint::black_box(f());
        iters += 1;
    }
    t0.elapsed() / iters.max(1) as u32
}

/// Parse `--name=value` from the process arguments, with a default.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let prefix = format!("--{name}=");
    for a in std::env::args() {
        if let Some(v) = a.strip_prefix(&prefix) {
            if let Ok(parsed) = v.parse() {
                return parsed;
            }
            eprintln!("warning: could not parse {a}, using default");
        }
    }
    default
}

/// Today's UTC date as `YYYY-MM-DD`, computed straight from the system
/// clock (no chrono in the workspace). Days-to-civil conversion follows
/// the standard era-based algorithm.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Append one run entry to a `BENCH_*.json` history file (read-modify-
/// write). The convention: a static header object whose LAST key is
/// `"history": [ ... ]`, one dated entry per benchmark run, so committed
/// baselines accumulate per PR instead of being overwritten.
///
/// If `path` already holds a history file, `entry` is spliced in before
/// the array's closing bracket (the two-space-indented `]` that closes
/// the top-level array — deeper-nested arrays inside entries are
/// indented further and never match). Otherwise the file is created as
/// `fresh_header` + the one-entry history. `entry` must be the complete
/// JSON object for this run, indented four spaces, no trailing newline
/// or comma; `fresh_header` must open the top-level object and end just
/// before the `"history"` key (trailing `,\n` included).
pub fn append_history(path: &str, fresh_header: &str, entry: &str) -> std::io::Result<()> {
    const CLOSE: &str = "\n  ]\n}";
    let entry = entry.trim_end();
    let out = match std::fs::read_to_string(path) {
        Ok(existing) if existing.contains("\"history\": [") => {
            let i = existing.rfind(CLOSE).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{path}: history file has no closing bracket"),
                )
            })?;
            format!("{},\n{entry}{}", &existing[..i], &existing[i..])
        }
        _ => format!("{fresh_header}  \"history\": [\n{entry}\n  ]\n}}\n"),
    };
    std::fs::write(path, out)
}

/// Minimal aligned-table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{c:>w$}  ", w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Human-friendly duration (matches the unit scales in the paper's plots).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}us")
    } else if us < 1e6 {
        format!("{:.1}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Format a ratio with one decimal.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.1}x")
}

/// Throughput in MB/s for `bytes` moved in `d`.
pub fn mb_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64().max(1e-12)
}

/// The three end-to-end workloads of §5.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Nn,
    Lr,
    Svm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Nn, Workload::Lr, Workload::Svm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Nn => "NN",
            Workload::Lr => "LR",
            Workload::Svm => "SVM",
        }
    }

    /// Model spec for a dataset with `classes` classes. The NN uses two
    /// hidden layers (scaled down from the paper's 200/50 to keep the
    /// harness fast; override with `--hidden1/--hidden2`).
    pub fn spec(self, classes: usize, hidden: (usize, usize)) -> ModelSpec {
        match self {
            Workload::Nn => ModelSpec::NeuralNet {
                hidden: vec![hidden.0, hidden.1],
                outputs: if classes == 2 { 1 } else { classes },
            },
            Workload::Lr => {
                if classes == 2 {
                    ModelSpec::Linear(LossKind::Logistic)
                } else {
                    ModelSpec::OneVsRest {
                        loss: LossKind::Logistic,
                        classes,
                    }
                }
            }
            Workload::Svm => {
                if classes == 2 {
                    ModelSpec::Linear(LossKind::Hinge)
                } else {
                    ModelSpec::OneVsRest {
                        loss: LossKind::Hinge,
                        classes,
                    }
                }
            }
        }
    }
}

/// Result of one end-to-end MGD run.
pub struct EndToEndResult {
    pub train_time: Duration,
    pub spilled_batches: usize,
    pub total_batches: usize,
    pub encoded_bytes: usize,
}

/// Build a store for `scheme` and train `workload` on it (the Tables 6–7 /
/// Figures 9–10 inner loop). `memory_budget` mimics the machine RAM of the
/// paper's setups and `disk_mbps` the simulated spill-storage bandwidth
/// ([`FaultPlan::device`]; 0 = raw file IO only); training time includes
/// the disk IO of spilled batches but not the one-time encoding cost,
/// matching §5.3.
pub fn end_to_end(
    ds: &Dataset,
    scheme: Scheme,
    workload: Workload,
    memory_budget: usize,
    epochs: usize,
    hidden: (usize, usize),
    disk_mbps: f64,
) -> EndToEndResult {
    let mut config = StoreConfig::new(scheme, 250, memory_budget).with_shards(1);
    if disk_mbps > 0.0 {
        config = config.with_fault_plan(FaultPlan::device(vec![DeviceProfile::stable(disk_mbps)]));
    }
    let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("store build");
    let trainer = Trainer::new(MgdConfig {
        epochs,
        lr: 0.05,
        ..Default::default()
    });
    let spec = workload.spec(ds.classes, hidden);
    let report = trainer.train(&spec, &store, None);
    EndToEndResult {
        train_time: report.train_time,
        spilled_batches: store.spilled_batches(),
        total_batches: store.num_batches(),
        encoded_bytes: store.total_bytes(),
    }
}

/// Wall-clock time for `threads` concurrent visitors to sweep every batch
/// of `provider` once (batch indices striped across visitors). This is
/// the read-path microbenchmark behind the `store_scaling` binary: on a
/// spilled store it measures exactly how much the visitors serialize on
/// the spill IO.
pub fn sweep_store(provider: &(dyn BatchProvider + Sync), threads: usize) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut i = t;
                while i < provider.num_batches() {
                    provider.visit(i, &mut |b, _| {
                        use toc_formats::MatrixBatch;
                        std::hint::black_box(b.size_bytes());
                    });
                    i += threads;
                }
            });
        }
    });
    t0.elapsed()
}

/// Compression ratio of `scheme` on a dense batch (DEN bytes / encoded
/// bytes), as defined in §5.1.
pub fn compression_ratio(batch: &toc_linalg::DenseMatrix, scheme: Scheme) -> f64 {
    use toc_formats::MatrixBatch;
    let encoded = scheme.encode(batch);
    batch.den_size_bytes() as f64 / encoded.size_bytes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use toc_data::synth::{generate_preset, DatasetPreset};

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]);
        t.print();
    }

    #[test]
    fn today_is_iso_shaped() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
        let year: i64 = d[..4].parse().unwrap();
        assert!(year >= 2024, "{d}");
        let month: u32 = d[5..7].parse().unwrap();
        assert!((1..=12).contains(&month), "{d}");
        let day: u32 = d[8..10].parse().unwrap();
        assert!((1..=31).contains(&day), "{d}");
    }

    #[test]
    fn history_appends_without_clobbering() {
        let path = std::env::temp_dir().join(format!("toc-bench-hist-{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::remove_file(&path).ok();
        let header = "{\n  \"bench\": \"t\",\n";
        // First run creates the file; nested arrays in an entry must not
        // confuse the splice point.
        append_history(
            &path,
            header,
            "    {\"run\": 1, \"sweep\": [\n      {\"x\": 1}\n    ]}",
        )
        .unwrap();
        append_history(&path, header, "    {\"run\": 2}").unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got,
            "{\n  \"bench\": \"t\",\n  \"history\": [\n    {\"run\": 1, \"sweep\": [\n      {\"x\": 1}\n    ]},\n    {\"run\": 2}\n  ]\n}\n"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.0us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
        assert_eq!(fmt_ratio(12.34), "12.3x");
    }

    #[test]
    fn end_to_end_smoke() {
        let ds = generate_preset(DatasetPreset::Kdd99Like, 500, 1);
        let r = end_to_end(&ds, Scheme::Toc, Workload::Lr, usize::MAX, 2, (8, 4), 0.0);
        assert_eq!(r.spilled_batches, 0);
        assert_eq!(r.total_batches, 2);
        assert!(r.train_time > Duration::ZERO);
    }

    #[test]
    fn workload_specs() {
        assert!(matches!(
            Workload::Lr.spec(2, (8, 4)),
            ModelSpec::Linear(LossKind::Logistic)
        ));
        assert!(matches!(
            Workload::Svm.spec(10, (8, 4)),
            ModelSpec::OneVsRest {
                loss: LossKind::Hinge,
                classes: 10
            }
        ));
        assert!(matches!(
            Workload::Nn.spec(10, (8, 4)),
            ModelSpec::NeuralNet { outputs: 10, .. }
        ));
    }

    #[test]
    fn sweep_store_reads_every_spilled_batch_once() {
        let ds = generate_preset(DatasetPreset::CensusLike, 500, 9);
        let config = StoreConfig::new(Scheme::Toc, 100, 0).with_shards(1);
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("store build");
        let d = sweep_store(&store, 4);
        assert!(d > Duration::ZERO);
        assert_eq!(
            store.stats().snapshot().disk_reads,
            store.num_batches() as u64
        );
    }

    #[test]
    fn compression_ratio_sane() {
        let ds = generate_preset(DatasetPreset::Kdd99Like, 250, 2);
        assert!(compression_ratio(&ds.x, Scheme::Toc) > 10.0);
        assert!((compression_ratio(&ds.x, Scheme::Den) - 1.0).abs() < 1e-9);
    }
}
