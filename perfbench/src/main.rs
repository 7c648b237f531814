//! CSV-to-model benchmark of the TOC reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mnist_spilled|drift_follow|census_serve|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The orchestrating process generates the
//! seeded CSV and the untimed reference outputs under `.bench_work/`,
//! then runs one fresh child process per measured iteration until
//! `--seconds` have passed. Each child sets up a store from the CSV,
//! trains, and checks its outputs after the timed phase. With
//! `--trace 0` the last line of standard output is a JSON object with the
//! end-to-end metrics; with `--trace 1`, iterations alternate between
//! untraced and traced and the JSON object holds the per-layer metrics
//! and the tracing overhead. See `perfbench/BENCH.md`.

mod gen;
mod harness;
mod record;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use record::Record;
use workloads::{Ctx, Workload};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("total_s", "s"),
    ("train_rows_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("job_p50_s", "s"),
    ("jobs_per_s", "1/s"),
    ("compression_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`; 0 where a layer does not
/// run in the workload.
const PER_LAYER: [(&str, &str); 53] = [
    ("csv.next_row_ns", "ns"),
    ("csv.rows", "count"),
    ("csv.bytes", "bytes"),
    ("ingest.seal_ns", "ns"),
    ("ingest.zone_map_ns", "ns"),
    ("ingest.pick_ns", "ns"),
    ("ingest.encode_ns", "ns"),
    ("ingest.to_bytes_ns", "ns"),
    ("ingest.chunks", "count"),
    ("ingest.chunks_den", "count"),
    ("ingest.chunks_csr", "count"),
    ("ingest.chunks_cvi", "count"),
    ("ingest.chunks_dvi", "count"),
    ("ingest.chunks_cla", "count"),
    ("ingest.chunks_snappy", "count"),
    ("ingest.chunks_gzip", "count"),
    ("ingest.chunks_toc", "count"),
    ("ingest.chunks_ans", "count"),
    ("ingest.pick_regret", "ratio"),
    ("store.append_ns", "ns"),
    ("store.bytes_written", "bytes"),
    ("store.ingest_stall_ns", "ns"),
    ("store.peak_pending", "count"),
    ("store.build_ns", "ns"),
    ("store.visit_self_ns", "ns"),
    ("store.visits", "count"),
    ("store.disk_reads", "count"),
    ("store.bytes_read", "bytes"),
    ("formats.parse_ns", "ns"),
    ("formats.parse_bytes", "bytes"),
    ("kernel.matvec_ns", "ns"),
    ("kernel.vecmat_ns", "ns"),
    ("kernel.matmat_ns", "ns"),
    ("kernel.calls", "count"),
    ("ml.step_ns", "ns"),
    ("ml.steps", "count"),
    ("ml.wait_ns", "ns"),
    ("ml.windows_during_ingest", "count"),
    ("serve.queue_wait_ns", "ns"),
    ("serve.qos_wait_ns", "ns"),
    ("serve.train_ns", "ns"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_rejected", "count"),
    ("serve.peak_concurrency", "count"),
    ("trace.overhead_s", "s"),
    ("trace.blocking_self_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.traced_total_s", "s"),
    ("trace.untraced_total_s", "s"),
    ("trace.iterations", "count"),
];

/// Iterations measured at least, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;
/// Stop starting iterations after this long, to end within three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

/// What an iteration child is told: its iteration, the run's work
/// directory and the workload's `key=value` parameters.
type ChildArgs = (usize, PathBuf, Vec<(String, String)>);

struct Args {
    /// One workload, or every workload for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in an iteration child.
    child: Option<ChildArgs>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut work = None;
    let mut params = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(match Workload::parse(v) {
                    Some(w) => vec![w],
                    None if v == "all" => workloads::ALL.to_vec(),
                    None => {
                        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
                        return Err(format!(
                            "unknown workload {v:?}; expected all or one of {}",
                            names.join(", ")
                        ));
                    }
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--child" => child = Some(value()?.parse().map_err(|e| format!("--child: {e}"))?),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--param" => {
                let v = value()?;
                let (k, val) = v.split_once('=').ok_or("--param takes key=value")?;
                params.push((k.to_string(), val.to_string()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child: match child {
            Some(i) => Some((i, work.ok_or("--child needs --work")?, params)),
            None => None,
        },
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.child.clone() {
        Some((iteration, dir, params)) => child(&args, iteration, dir, params),
        None => {
            let mut correct = true;
            for &w in &args.workloads {
                correct &= orchestrate(&args, w)?;
            }
            if args.workloads.len() > 1 {
                println!("all workloads correct: {correct}");
            }
            Ok(())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn child(
    args: &Args,
    iteration: usize,
    dir: PathBuf,
    params: Vec<(String, String)>,
) -> Result<(), String> {
    let [w] = args.workloads[..] else {
        return Err("an iteration child runs exactly one workload".into());
    };
    if args.trace {
        trace::enable();
    }
    let trace_file = dir
        .parent()
        .unwrap_or(&dir)
        .join(format!("last-trace-{}.tsv", w.name()));
    let ctx = Ctx {
        csv: dir.join("input.csv"),
        dir,
        iteration,
        params,
        trace_file,
    };
    let rec = w.iterate(&ctx).map_err(|e| e.to_string())?;
    print!("{}", rec.emit());
    Ok(())
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload and print its metrics; returns whether every output
/// check passed.
fn orchestrate(args: &Args, w: Workload) -> Result<bool, String> {
    let root = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work");
    let work = WorkDir(root.join(format!("{}-{}-{}", w.name(), args.seed, std::process::id())));
    let dir = &work.0;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t = Instant::now();
    let csv_bytes = w
        .generate(&dir.join("input.csv"), args.seed)
        .map_err(|e| format!("generate: {e}"))?;
    eprintln!(
        "{}: seed {} -> {csv_bytes} CSV bytes in {:.2?}",
        w.name(),
        args.seed,
        t.elapsed()
    );
    let t = Instant::now();
    let params = w
        .reference(&dir.join("input.csv"), dir)
        .map_err(|e| format!("reference: {e}"))?;
    eprintln!("{}: reference outputs in {:.2?}", w.name(), t.elapsed());

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut untraced: Vec<Record> = Vec::new();
    let mut traced: Vec<Record> = Vec::new();
    let mut crashed = 0u64;
    for i in 0.. {
        let with_trace = args.trace && i % 2 == 1;
        match run_child(&exe, args, w, i, dir, &params, with_trace) {
            Ok(rec) => {
                eprintln!(
                    "{}: iteration {i}{}: setup {:.4} s, total {:.4} s, peak rss {} kB",
                    w.name(),
                    if with_trace { " (traced)" } else { "" },
                    rec.get("setup_s").unwrap_or(f64::NAN),
                    rec.get("total_s").unwrap_or(f64::NAN),
                    rec.get("peak_rss_kb").unwrap_or(f64::NAN),
                );
                if with_trace {
                    traced.push(rec);
                } else {
                    untraced.push(rec);
                }
            }
            Err(e) => {
                eprintln!("{}: iteration {i} failed: {e}", w.name());
                crashed += 1;
                break;
            }
        }
        let enough = untraced.len() >= MIN_ITERATIONS && (!args.trace || traced.len() >= 2);
        let elapsed = start.elapsed();
        if (enough && elapsed >= Duration::from_secs(args.seconds)) || elapsed >= HARD_STOP {
            break;
        }
    }
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        return Err("no iteration completed".into());
    }

    let mut failed = crashed;
    let mut attempted = crashed;
    for rec in untraced.iter().chain(&traced) {
        attempted += rec.get("attempted_ops").unwrap_or(0.0) as u64 + rec.checks.len() as u64;
        for (name, ok, detail) in &rec.checks {
            if !ok {
                failed += 1;
                eprintln!("{}: check {name} failed: {detail}", w.name());
            }
        }
    }
    // Every iteration of one run sees the same input, so the sealed and
    // stored bytes must agree between iterations, traced or not.
    let all: Vec<&Record> = untraced.iter().chain(&traced).collect();
    for key in ["ingest.encoded_bytes", "stored_bytes"] {
        attempted += 1;
        let first = all[0].get(key);
        if all.iter().any(|r| r.get(key) != first) {
            failed += 1;
            eprintln!("{}: check {key}: iterations disagree", w.name());
        }
    }

    let metrics = if args.trace {
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced)
    };
    eprintln!(
        "{}: {} untraced + {} traced iterations in {:.2?}; failed_share {} ({failed} of {attempted} operations)",
        w.name(),
        untraced.len(),
        traced.len(),
        start.elapsed(),
        stats::failed_share(failed, attempted),
    );
    let mut correct = failed == 0;
    let mut fields = Vec::new();
    for (name, unit, value) in &metrics {
        println!("{} {name} = {value} {unit}", w.name());
        let value = if value.is_finite() {
            *value
        } else {
            correct = false;
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(correct)
}

fn run_child(
    exe: &Path,
    args: &Args,
    w: Workload,
    iteration: usize,
    dir: &Path,
    params: &[String],
    with_trace: bool,
) -> Result<Record, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if with_trace { "1" } else { "0" }])
        .args(["--child", &iteration.to_string()])
        .arg("--work")
        .arg(dir);
    for p in params {
        cmd.args(["--param", p]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    Record::parse(&String::from_utf8_lossy(&out.stdout))
}

fn medians(recs: &[Record], f: impl Fn(&Record) -> Option<f64>) -> f64 {
    stats::median(&recs.iter().filter_map(f).collect::<Vec<_>>())
}

fn pooled(recs: &[Record], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = recs.iter().flat_map(|r| r.sample(name).to_vec()).collect();
    stats::sort(&mut v);
    v
}

/// Describe a pooled sample: its count and the highest percentile with
/// at least ten samples beyond it.
fn describe(name: &str, sorted: &[f64], unit: &str) {
    match stats::tail(sorted) {
        Some((p, v, beyond)) => eprintln!(
            "  {name}: n={} tail p{p} = {v:.4} {unit} ({beyond} samples beyond)",
            sorted.len()
        ),
        None => eprintln!(
            "  {name}: n={} (too few samples for a tail percentile)",
            sorted.len()
        ),
    }
}

fn end_to_end(recs: &[Record]) -> Vec<(&'static str, &'static str, f64)> {
    let visits = pooled(recs, "visit_ms");
    let jobs = pooled(recs, "job_s");
    describe("batch latency", &visits, "ms");
    describe("job time", &jobs, "s");
    let pct = |v: &[f64], p: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            stats::percentile(v, p).0
        }
    };
    let per_train_s = |key: &'static str| move |r: &Record| Some(r.get(key)? / r.get("train_s")?);
    let values = [
        medians(recs, |r| r.get("setup_s")),
        medians(recs, |r| r.get("total_s")),
        medians(recs, per_train_s("rows_stepped")),
        pct(&visits, 50.0),
        pct(&visits, 95.0),
        stats::median(&jobs),
        medians(recs, per_train_s("jobs")),
        medians(recs, |r| {
            Some(r.get("dense_bytes")? / r.get("stored_bytes")?)
        }),
        medians(recs, |r| Some(r.get("peak_rss_kb")? / 1024.0)),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

fn per_layer(untraced: &[Record], traced: &[Record]) -> Vec<(&'static str, &'static str, f64)> {
    let traced_total = medians(traced, |r| r.get("total_s"));
    let untraced_total = medians(untraced, |r| r.get("total_s"));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "trace.overhead_s" => traced_total - untraced_total,
                "trace.traced_total_s" => traced_total,
                "trace.untraced_total_s" => untraced_total,
                "trace.iterations" => traced.len() as f64,
                _ => medians(traced, |r| Some(r.get(name).unwrap_or(0.0))),
            };
            (name, unit, v)
        })
        .collect()
}
