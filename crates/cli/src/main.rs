#![forbid(unsafe_code)]
//! `toc` — command-line front end for tuple-oriented compression.
//!
//! ```text
//! toc gen --preset census --rows 1000 data.csv     generate synthetic data
//! toc compress data.csv data.tocz [--scheme toc]   CSV -> compressed batches
//! toc decompress data.tocz back.csv                compressed -> CSV
//! toc inspect data.tocz                            per-batch statistics
//! toc bench data.csv                               compare all schemes
//! toc train data.csv --model lr --epochs 10        MGD training (last column = label)
//! ```

mod container;
mod csv;
#[cfg(test)]
mod testutil;

use container::Container;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use toc_data::store::StoreConfig;
use toc_data::testing::{DeviceProfile, FaultPlan};
use toc_formats::{ClaOptions, EncodeOptions, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; see `toc help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
toc — tuple-oriented compression for mini-batch SGD

USAGE:
  toc gen --preset <census|imagenet|mnist|kdd99|rcv1|deep1b> --rows <n> <out.csv>
  toc ingest <in.csv> <out.tocz>   [--chunk-rows <n>] [--scheme <s|auto>]
                                   [--checkpoint-every <chunks>] [--resume]
                                   (bounded-memory streaming encode: rows stream through a
                                    reusable chunk workspace — peak memory is one chunk, never
                                    the dataset — each sealed chunk becomes one v2 container
                                    segment with its scheme picked per chunk when --scheme auto
                                    (the default), and the finished stream is a valid seekable
                                    .tocz. Prints a machine-parseable \"ingest:\" stats line.
                                    --checkpoint-every persists a checksummed <out>.tocz.ckpt
                                    sidecar after every N sealed chunks; --resume validates the
                                    sidecar against the partial output, truncates any torn tail
                                    past the checkpointed watermark, and continues the ingest to
                                    a byte-identical container — never re-encoding a sealed
                                    chunk. The sidecar is removed once the footer is written)
  toc compress <in.csv> <out.tocz> [--scheme <den|csr|cvi|dvi|cla|snappy|gzip|ans|toc|auto>] [--segment-rows <n>]
                                   [--container-version <1|2>]
                                   (--codec is accepted as an alias of --scheme, --batch-rows of
                                    --segment-rows; v2 containers carry a seekable layout-tree
                                    footer with per-segment zone maps, v1 is the legacy
                                    decode-everything blob)
  toc decompress <in.tocz> <out.csv> [--rows <a..b>] [--parallel <n>]
                                   (--rows decodes only the segments overlapping rows a..b —
                                    on a v2 container this reads just those segments' bytes;
                                    --parallel decodes touched segments on n threads)
  toc inspect <in.tocz>            (v2: prints the footer's layout tree and zone maps)
  toc bench <in.csv> [--batch-rows <n>]
  toc train <in.csv|in.tocz> [--model <lr|svm|linreg>] [--epochs <n>] [--lr <f>] [--scheme <s>] [--batch-rows <n>]
            [--budget <bytes>] [--shards <n>] [--prefetch <k>] [--mbps <f>]
            [--placement <stripe|pack|adaptive>] [--adaptive]
            [--follow] [--window <batches>] [--max-pending <chunks>]
            [--poll-ms <n>] [--idle-ms <n>]
            (the last CSV column is the ±1 label; --budget trains over the
             out-of-core sharded spill store: batches beyond the budget
             spill to --shards files and are read back through --prefetch
             background workers that each read and decode one upcoming
             batch. --mbps <f> sets a simulated device bandwidth of <f>
             MB/s per shard, standing in for the paper's cloud block
             storage: every spilled read also sleeps as that device would,
             and the \"io:\" line reports the delay as simulated. Without
             --mbps, spill IO is real and never sleeps.
             --placement pack lays consecutive spilled batches out
             file-adjacent, and adaptive (shorthand: --adaptive) profiles
             per-shard bandwidth at runtime and re-packs hot batches onto
             the fastest shards between epochs. Prints machine-parseable
             \"io-read:\" (read-latency percentiles) and \"placement:\"
             lines. A .tocz input trains straight off the container: with
             --budget the sharded store streams v2 segments through the
             seekable reader, one decoded segment in memory at a time.
             --follow (requires --budget) tails the CSV *file itself* —
             even while another process is still appending to it —
             through the bounded-memory ingest pipeline into a *live*
             store while a single online-SGD pass trains concurrently
             over segments as they seal, reporting prequential error once
             per --window batches (default 8) on machine-parseable
             \"window:\" lines. Only newline-terminated lines commit (a
             torn tail mid-write is retried, never half-parsed); a
             truncated/rotated file is re-followed from the top; the
             stream ends after --idle-ms (default 400) with no growth,
             polling every --poll-ms (default 10). --max-pending bounds
             the sealed-chunks-ahead gap between ingest and trainer:
             the producer blocks (reported on the \"backpressure:\" line)
             instead of growing the store unboundedly)

  toc serve <in.csv|in.tocz> [--jobs <n>] [--script <file>] [--max-concurrent <n>]
            [--cache-budget <bytes>] [--model <lr|svm|linreg>] [--epochs <n>] [--lr <f>]
            [--seed <n>] [--shares <s0,s1,...>] [--scheme <s>] [--batch-rows <n>]
            [--budget <bytes>] [--shards <n>] [--mbps <f>]
            [--placement <stripe|pack|adaptive>] [--adaptive]
            (multi-tenant mode: run --jobs concurrent training jobs over ONE
             shared spill store (--budget defaults to 0: everything spills)
             and one shared compressed-batch cache of --cache-budget bytes
             (default: a quarter of the spilled bytes) with heat-based
             eviction. --max-concurrent gates admission (0 = unlimited);
             queued jobs wait their turn. Job i trains with seed --seed+i
             and QoS share --shares[i mod len] (default 1): a job's misses
             are throttled to share/mean-share of each shard's measured
             EWMA bandwidth. --mbps is the simulated device bandwidth, as
             for train. --script <file> instead defines one job per
             line as key=value tokens (name= model= epochs= lr= seed=
             share=; '#' comments). Prints one machine-parseable
             \"job: key=value ...\" line per job and a \"serve: ...\"
             aggregate line)

  ingest/compress/bench/train/serve also accept the CLA co-coding knobs:
    --cla-planner <greedy|sample>   column grouping algorithm (default sample)
    --cla-sample <rows>             planner sample size (default 256)
  `--scheme auto` (compress) picks the smallest-estimate scheme per dataset,
  judging CLA by its planner estimate instead of a full encode probe.
  Every command rejects options it does not list above.
";

/// Options that are plain flags (no value follows them). Everything else
/// starting with `--` consumes the next token as its value.
const BOOL_FLAGS: &[&str] = &["--adaptive", "--follow", "--resume"];

/// Fetch `--name value` from an argument list.
fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--name <value>` parsed as a `T` when the option is given. A value
/// that does not parse is an error naming the option, never a silent
/// fallback to the default.
fn num_opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    opt(args, name)
        .map(|s| s.parse().map_err(|e| format!("{name}: {e}")))
        .transpose()
}

/// [`num_opt`] for a count of rows, batches or jobs, which must be at
/// least 1.
fn count_opt(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match num_opt(args, name)?.unwrap_or(default) {
        0 => Err(format!("{name} must be >= 1")),
        n => Ok(n),
    }
}

/// Whether the boolean flag `name` (a [`BOOL_FLAGS`] member) was passed.
fn has_flag(args: &[String], name: &str) -> bool {
    debug_assert!(BOOL_FLAGS.contains(&name));
    args.iter().any(|a| a == name)
}

/// The positional arguments, after checking that every `--option` is one
/// the command accepts: a misspelled or retired option is an error that
/// names it, never silently ignored (or left to swallow a positional).
fn positional<'a>(args: &'a [String], accepted: &[&str]) -> Result<Vec<&'a String>, String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args.iter() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            if !accepted.contains(&a.as_str()) {
                return Err(format!("unknown option {a}; see `toc help`"));
            }
            // Value-less flags don't consume the next token.
            skip = !BOOL_FLAGS.contains(&a.as_str());
            continue;
        }
        out.push(a);
    }
    Ok(out)
}

/// Parse the CLA planner knobs shared by ingest/compress/bench/train/serve.
fn encode_options(args: &[String]) -> Result<EncodeOptions, String> {
    let mut cla = ClaOptions::default();
    if let Some(p) = opt(args, "--cla-planner") {
        cla.planner = p.parse()?;
    }
    // An empty sample estimates every column as incompressible and
    // silently produces an uncompressed CLA plan, so 0 is rejected.
    cla.sample_rows = count_opt(args, "--cla-sample", cla.sample_rows)?;
    Ok(EncodeOptions { cla })
}

/// `--placement <p>`, or `--adaptive` as its shorthand (default stripe).
fn parse_placement(args: &[String]) -> Result<toc_data::ShardPlacement, String> {
    let placement = match opt(args, "--placement") {
        Some(p) => p.parse()?,
        None => toc_data::ShardPlacement::Stripe,
    };
    if !has_flag(args, "--adaptive") {
        return Ok(placement);
    }
    if opt(args, "--placement").is_some_and(|p| !p.eq_ignore_ascii_case("adaptive")) {
        return Err("--adaptive conflicts with the explicit --placement".into());
    }
    Ok(toc_data::ShardPlacement::Adaptive)
}

/// The out-of-core store options shared by `train` (built and `--follow`)
/// and `serve`; a command that does not accept one of them has already
/// rejected it, so it takes its default here. `--mbps` is the one place a
/// simulated device enters the CLI: it becomes a device-only fault plan
/// ([`FaultPlan::device`]), and output that reports its delay labels it
/// as simulated.
fn store_config(
    args: &[String],
    scheme: Scheme,
    batch_rows: usize,
    budget: usize,
    encode: EncodeOptions,
) -> Result<StoreConfig, String> {
    let mut config = StoreConfig::new(scheme, batch_rows, budget)
        .with_shards(num_opt(args, "--shards")?.unwrap_or(0))
        .with_prefetch(num_opt(args, "--prefetch")?.unwrap_or(0))
        .with_placement(parse_placement(args)?)
        .with_encode_options(encode)
        .with_max_pending(num_opt(args, "--max-pending")?.unwrap_or(0));
    if let Some(mbps) = num_opt::<f64>(args, "--mbps")? {
        if !(mbps.is_finite() && mbps > 0.0) {
            return Err(format!("--mbps must be > 0, got {mbps}"));
        }
        config = config.with_fault_plan(FaultPlan::device(vec![DeviceProfile::stable(mbps)]));
    }
    Ok(config)
}

fn parse_scheme(s: &str) -> Result<Scheme, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "den" => Scheme::Den,
        "csr" => Scheme::Csr,
        "cvi" => Scheme::Cvi,
        "dvi" => Scheme::Dvi,
        "cla" => Scheme::Cla,
        "snappy" => Scheme::Snappy,
        "gzip" => Scheme::Gzip,
        "toc" => Scheme::Toc,
        "toc-varint" => Scheme::TocVarint,
        "ans" => Scheme::GcAns,
        other => return Err(format!("unknown scheme {other:?}")),
    })
}

/// Read a numeric CSV (header auto-detected and dropped) into a dense
/// matrix through the data crate's reader.
fn read_csv_matrix(path: &Path) -> Result<DenseMatrix, String> {
    let (rows, cols, data, _) =
        toc_data::csv::read_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(DenseMatrix::from_vec(rows, cols, data))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    use toc_data::synth::{generate_preset, DatasetPreset};
    let out = positional(args, &["--preset", "--rows", "--seed"])?;
    let preset_name = opt(args, "--preset").ok_or("--preset required")?;
    let preset = DatasetPreset::ALL
        .into_iter()
        .find(|p| p.name() == preset_name)
        .ok_or_else(|| format!("unknown preset {preset_name:?}"))?;
    opt(args, "--rows").ok_or("--rows required")?;
    let rows = count_opt(args, "--rows", 0)?;
    let seed: u64 = num_opt(args, "--seed")?.unwrap_or(42);
    let out: &Path = Path::new(out.first().ok_or("output path required")?);
    let ds = generate_preset(preset, rows, seed);
    // Emit features plus the label as the last column.
    let mut m = DenseMatrix::zeros(ds.x.rows(), ds.x.cols() + 1);
    for r in 0..ds.x.rows() {
        m.row_mut(r)[..ds.x.cols()].copy_from_slice(ds.x.row(r));
        m.set(r, ds.x.cols(), ds.labels[r]);
    }
    csv::write_matrix(out, &m, None)?;
    println!(
        "wrote {} rows x {} cols (+label) to {}",
        ds.x.rows(),
        ds.x.cols(),
        out.display()
    );
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), String> {
    use toc_data::{ingest_csv_container, CsvContainerJob};
    let pos = positional(
        args,
        &[
            "--chunk-rows",
            "--scheme",
            "--checkpoint-every",
            "--resume",
            "--cla-planner",
            "--cla-sample",
        ],
    )?;
    let [input, output] = pos[..] else {
        return Err(
            "usage: toc ingest <in.csv> <out.tocz> [--resume] [--checkpoint-every <chunks>]".into(),
        );
    };
    let chunk_rows = count_opt(args, "--chunk-rows", 250)?;
    let scheme_arg = opt(args, "--scheme").unwrap_or_else(|| "auto".into());
    let scheme = if scheme_arg.eq_ignore_ascii_case("auto") {
        None // per-chunk pick over Scheme::AUTO_SET
    } else {
        Some(parse_scheme(&scheme_arg)?)
    };
    let opts = encode_options(args)?;
    let resume = has_flag(args, "--resume");
    // --resume implies periodic checkpointing (a resumed run must stay
    // resumable); --checkpoint-every alone makes a fresh run resumable.
    let checkpoint_every: u64 =
        num_opt(args, "--checkpoint-every")?.unwrap_or(if resume { 8 } else { 0 });
    if resume && checkpoint_every == 0 {
        return Err("--resume needs checkpointing; --checkpoint-every must be >= 1".into());
    }
    let out_path = Path::new(output);
    let t0 = Instant::now();

    // Without checkpointing, never leave a truncated container behind —
    // whether ingest errors *or panics*. With checkpointing, the partial
    // output plus its sidecar IS the resume artifact and must survive.
    struct Cleanup<'a> {
        path: &'a Path,
        armed: bool,
    }
    impl Drop for Cleanup<'_> {
        fn drop(&mut self) {
            if self.armed {
                std::fs::remove_file(self.path).ok();
            }
        }
    }
    let mut guard = Cleanup {
        path: out_path,
        armed: checkpoint_every == 0,
    };

    let job = CsvContainerJob {
        csv: Path::new(input).to_path_buf(),
        out: out_path.to_path_buf(),
        chunk_rows,
        scheme,
        encode: opts,
        checkpoint_every,
    };
    let outcome = ingest_csv_container(&job, resume).map_err(|e| e.to_string())?;
    guard.armed = false;
    let elapsed = t0.elapsed();
    let stats = &outcome.stats;
    // Machine-parseable counters (the CLI smoke tests parse this line):
    // key=value pairs only.
    println!(
        "ingest: rows={} cols={} chunks={} chunk-rows={chunk_rows} bytes={} \
         peak-workspace-bytes={} schemes={} resumed-chunks={}",
        stats.rows,
        outcome.cols,
        stats.chunks,
        outcome.total_bytes,
        stats.peak_workspace_bytes,
        stats.scheme_summary(),
        outcome.resumed_chunks,
    );
    println!(
        "wrote {} in {elapsed:.1?}: {} rows x {} cols as {} segments \
         ({} KB wire, peak workspace {} KB)",
        out_path.display(),
        stats.rows,
        outcome.cols,
        stats.chunks,
        outcome.total_bytes / 1024,
        stats.peak_workspace_bytes / 1024,
    );
    Ok(())
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let pos = positional(
        args,
        &[
            "--scheme",
            "--codec",
            "--segment-rows",
            "--batch-rows",
            "--container-version",
            "--cla-planner",
            "--cla-sample",
        ],
    )?;
    let [input, output] = pos[..] else {
        return Err("usage: toc compress <in.csv> <out.tocz>".into());
    };
    // `--codec` is accepted as an alias of `--scheme` (the byte-codec
    // schemes like ans/gzip/snappy read naturally as codecs).
    let scheme_arg = opt(args, "--scheme")
        .or_else(|| opt(args, "--codec"))
        .unwrap_or_else(|| "toc".into());
    // `--segment-rows` is the v2 name (segments are the seekable unit);
    // `--batch-rows` stays as an alias for older scripts.
    let rows_flag = match opt(args, "--segment-rows") {
        Some(_) => "--segment-rows",
        None => "--batch-rows",
    };
    let batch_rows = count_opt(args, rows_flag, 250)?;
    let version: u8 = match opt(args, "--container-version").as_deref() {
        None | Some("2") => 2,
        Some("1") => 1,
        Some(v) => return Err(format!("--container-version must be 1 or 2, got {v:?}")),
    };
    let opts = encode_options(args)?;
    let m = read_csv_matrix(Path::new(input))?;
    let scheme = if scheme_arg.eq_ignore_ascii_case("auto") {
        // Pick on the first batch: CLA is judged by its planner estimate,
        // the others by an encode probe of one batch.
        let probe = m.slice_rows(0, m.rows().min(batch_rows));
        let picked = toc_formats::pick_scheme(&probe, &Scheme::AUTO_SET, &opts);
        println!("auto: picked {}", picked.name());
        picked
    } else {
        parse_scheme(&scheme_arg)?
    };
    let t0 = Instant::now();
    let container = Container::encode_with(&m, scheme, batch_rows, &opts);
    let elapsed = t0.elapsed();
    if version == 1 {
        container.write_v1(Path::new(output))?;
    } else {
        container.write(Path::new(output))?;
    }
    let den = m.den_size_bytes();
    let enc = container.payload_bytes();
    println!(
        "{}: {} rows x {} cols -> {} batches, {} -> {} bytes ({:.1}x) in {:.1?}",
        scheme.name(),
        m.rows(),
        m.cols(),
        container.batches.len(),
        den,
        enc,
        den as f64 / enc as f64,
        elapsed,
    );
    Ok(())
}

/// Parse `--rows a..b` (start may be omitted: `..b` means `0..b`).
fn parse_row_range(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--rows expects <start>..<end>, got {s:?}"))?;
    let a: usize = if a.is_empty() {
        0
    } else {
        a.parse().map_err(|e| format!("--rows start: {e}"))?
    };
    let b: usize = b.parse().map_err(|e| format!("--rows end: {e}"))?;
    if a > b {
        return Err(format!("--rows start {a} exceeds end {b}"));
    }
    Ok((a, b))
}

/// The version byte of a `.tocz` file (offset 4), without parsing it.
/// Checks the magic first so a non-`.tocz` input is reported as such
/// instead of whatever its fifth byte happens to be.
fn container_version(path: &Path) -> Result<u8, String> {
    use std::io::Read;
    let mut head = [0u8; 5];
    let mut f = std::fs::File::open(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    f.read_exact(&mut head)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    if u32::from_le_bytes(head[0..4].try_into().unwrap()) != toc_formats::container::MAGIC {
        return Err(format!("{}: not a .tocz container", path.display()));
    }
    Ok(head[4])
}

fn cmd_decompress(args: &[String]) -> Result<(), String> {
    let pos = positional(args, &["--rows", "--parallel"])?;
    let [input, output] = pos[..] else {
        return Err("usage: toc decompress <in.tocz> <out.csv>".into());
    };
    let rows = opt(args, "--rows")
        .map(|s| parse_row_range(&s))
        .transpose()?;
    let parallel: usize = num_opt(args, "--parallel")?.unwrap_or(1);
    let path = Path::new(input);
    let m = match rows {
        Some((r0, r1)) if container_version(path)? == 2 => {
            // Seekable projection: only the segments overlapping the range
            // are read from disk at all.
            let sc = toc_data::SeekableContainer::open(path)?;
            let m = sc.decode_rows_parallel(r0, r1, parallel)?;
            let s = sc.stats().snapshot();
            println!(
                "seek: {} reads, {} of {} payload bytes",
                s.disk_reads,
                s.bytes_read,
                sc.payload_bytes(),
            );
            m
        }
        Some((r0, r1)) => Container::read(path)?.decode_rows(r0, r1)?,
        None => Container::read(path)?.decode()?,
    };
    csv::write_matrix(Path::new(output), &m, None)?;
    println!(
        "decoded {} rows x {} cols to {}",
        m.rows(),
        m.cols(),
        output
    );
    Ok(())
}

/// Print one layout-tree node (and children) with box-drawing indent,
/// spending from a shared line budget so giant containers stay readable.
fn print_layout_node(node: &toc_formats::container::LayoutNode, depth: usize, budget: &mut isize) {
    if *budget <= 0 {
        if *budget == 0 {
            println!("  {}...", "  ".repeat(depth));
            *budget -= 1;
        }
        return;
    }
    *budget -= 1;
    let kind = match node.scheme {
        Some(tag) => {
            let name = Scheme::ALL
                .iter()
                .find(|s| s.tag() == tag)
                .map(|s| s.name())
                .unwrap_or("?");
            format!("seg[{name}]")
        }
        None => "tree".to_string(),
    };
    println!(
        "  {}{kind} rows {}..{} bytes {}..{} zone[min={} max={} nnz={} distinct~{}]",
        "  ".repeat(depth),
        node.row_start,
        node.row_end,
        node.begin,
        node.end,
        node.zone.min,
        node.zone.max,
        node.zone.nnz,
        node.zone.distinct,
    );
    for c in &node.children {
        print_layout_node(c, depth + 1, budget);
    }
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let pos = positional(args, &[])?;
    let [input] = pos[..] else {
        return Err("usage: toc inspect <in.tocz>".into());
    };
    let version = container_version(Path::new(input))?;
    if version == 2 {
        let bytes = std::fs::read(Path::new(input)).map_err(|e| format!("read {input}: {e}"))?;
        let (footer, ps) =
            toc_formats::container::parse_v2_footer(&bytes).map_err(|e| format!("{input}: {e}"))?;
        println!(
            "{}: v2, {} segments, {} rows x {} cols, footer {} bytes at {} (tree depth {})",
            input,
            footer.num_segments(),
            footer.total_rows(),
            footer.cols,
            ps.footer_len,
            ps.footer_offset,
            footer.root.depth(),
        );
        println!("layout:");
        let mut budget: isize = 40;
        print_layout_node(&footer.root, 0, &mut budget);
    }
    let container = Container::read(Path::new(input))?;
    println!("{}: {} batches", input, container.batches.len());
    let mut total = 0usize;
    let mut rows = 0usize;
    for (i, b) in container.batches.iter().enumerate() {
        total += b.size_bytes();
        rows += b.rows();
        if i < 8 {
            let extra = if let toc_formats::AnyBatch::Toc(t) = b {
                let s = t.toc().stats();
                format!(
                    " |I|={} uniq={} |D|={} nodes={}",
                    s.first_layer_len, s.unique_values, s.codes_len, s.n_nodes
                )
            } else {
                String::new()
            };
            println!(
                "  batch {i}: {}x{} {} bytes{extra}",
                b.rows(),
                b.cols(),
                b.size_bytes()
            );
        }
    }
    if container.batches.len() > 8 {
        println!("  ... ({} more)", container.batches.len() - 8);
    }
    let cols = container.batches.first().map(|b| b.cols()).unwrap_or(0);
    let den = 16 * container.batches.len() + 8 * rows * cols;
    println!(
        "total: {rows} rows, {total} bytes encoded ({:.1}x vs DEN)",
        den as f64 / total as f64
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let pos = positional(args, &["--batch-rows", "--cla-planner", "--cla-sample"])?;
    let [input] = pos[..] else {
        return Err("usage: toc bench <in.csv>".into());
    };
    let batch_rows = count_opt(args, "--batch-rows", 250)?;
    let opts = encode_options(args)?;
    let m = read_csv_matrix(Path::new(input))?;
    let batch = m.slice_rows(0, m.rows().min(batch_rows));
    let den = batch.den_size_bytes();
    let v: Vec<f64> = (0..batch.cols())
        .map(|i| (i % 5) as f64 * 0.5 - 1.0)
        .collect();
    println!(
        "{}: first {} rows x {} cols (density {:.3})",
        input,
        batch.rows(),
        batch.cols(),
        batch.density()
    );
    println!(
        "{:>8} {:>10} {:>8} {:>12} {:>12}",
        "scheme", "bytes", "ratio", "encode", "A*v"
    );
    for scheme in Scheme::PAPER_SET {
        let t0 = Instant::now();
        let encoded = scheme.encode_with(&batch, &opts);
        let enc_time = t0.elapsed();
        let _ = encoded.matvec(&v);
        let t1 = Instant::now();
        let iters = 10;
        for _ in 0..iters {
            std::hint::black_box(encoded.matvec(&v));
        }
        let op = t1.elapsed() / iters;
        println!(
            "{:>8} {:>10} {:>7.1}x {:>12.1?} {:>12.1?}",
            scheme.name(),
            encoded.size_bytes(),
            den as f64 / encoded.size_bytes() as f64,
            enc_time,
            op,
        );
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    use toc_ml::mgd::{MemoryProvider, MgdConfig, ModelSpec, Trainer};
    use toc_ml::LossKind;
    let pos = positional(
        args,
        &[
            "--model",
            "--epochs",
            "--lr",
            "--scheme",
            "--batch-rows",
            "--budget",
            "--shards",
            "--prefetch",
            "--mbps",
            "--placement",
            "--adaptive",
            "--follow",
            "--window",
            "--max-pending",
            "--poll-ms",
            "--idle-ms",
            "--cla-planner",
            "--cla-sample",
        ],
    )?;
    let [input] = pos[..] else {
        return Err("usage: toc train <in.csv>".into());
    };
    let scheme = parse_scheme(&opt(args, "--scheme").unwrap_or_else(|| "toc".into()))?;
    let batch_rows = count_opt(args, "--batch-rows", 250)?;
    let encode_opts = encode_options(args)?;
    let epochs: usize = num_opt(args, "--epochs")?.unwrap_or(10);
    let lr: f64 = num_opt(args, "--lr")?.unwrap_or(0.05);
    let model = opt(args, "--model").unwrap_or_else(|| "lr".into());
    let loss = match model.as_str() {
        "lr" => LossKind::Logistic,
        "svm" => LossKind::Hinge,
        "linreg" => LossKind::Squared,
        other => return Err(format!("unknown model {other:?}")),
    };

    // A `.tocz` input trains straight off a compressed container.
    let from_container = input.ends_with(".tocz");

    let trainer = Trainer::new(MgdConfig {
        epochs,
        lr,
        ..Default::default()
    });
    let spec = ModelSpec::Linear(loss);

    let budget: Option<usize> = num_opt(args, "--budget")?;
    let config = store_config(args, scheme, batch_rows, budget.unwrap_or(0), encode_opts)?;
    if budget.is_none()
        && (config.shards > 0
            || config.prefetch > 0
            || config.fault.is_some()
            || opt(args, "--placement").is_some()
            || has_flag(args, "--adaptive"))
    {
        return Err(
            "--shards/--prefetch/--mbps/--placement/--adaptive configure the out-of-core \
             store; pass --budget <bytes> to enable it"
                .into(),
        );
    }
    if has_flag(args, "--follow") && budget.is_none() {
        return Err(
            "--follow streams rows into the live out-of-core store; pass --budget <bytes>".into(),
        );
    }
    if opt(args, "--window").is_some() && !has_flag(args, "--follow") {
        return Err("--window only applies with --follow".into());
    }
    for f in ["--max-pending", "--poll-ms", "--idle-ms"] {
        if opt(args, f).is_some() && !has_flag(args, "--follow") {
            return Err(format!("{f} only applies with --follow"));
        }
    }
    if has_flag(args, "--follow") {
        // Follow mode tails the file itself (it may still be growing
        // under a concurrent writer), so nothing is pre-read here.
        if from_container {
            return Err(
                "--follow tails a growing CSV; a .tocz container is already finished".into(),
            );
        }
        let window = count_opt(args, "--window", 8)?;
        let poll_ms: u64 = num_opt(args, "--poll-ms")?.unwrap_or(10);
        let idle_ms: u64 = num_opt(args, "--idle-ms")?.unwrap_or(400);
        if idle_ms == 0 {
            return Err("--idle-ms must be >= 1".into());
        }
        return train_follow(
            Path::new(input),
            &trainer,
            &spec,
            &config,
            scheme,
            batch_rows,
            encode_opts,
            window,
            &model,
            std::time::Duration::from_millis(poll_ms),
            std::time::Duration::from_millis(idle_ms),
        );
    }

    let full = if from_container {
        Container::read(Path::new(input))?.decode()?
    } else {
        read_csv_matrix(Path::new(input))?
    };
    if full.cols() < 2 {
        return Err("need at least one feature column plus the label column".into());
    }
    let d = full.cols() - 1;
    let mut x = DenseMatrix::zeros(full.rows(), d);
    let mut y = Vec::with_capacity(full.rows());
    for r in 0..full.rows() {
        x.row_mut(r).copy_from_slice(&full.row(r)[..d]);
        y.push(if full.get(r, d) >= 0.0 { 1.0 } else { -1.0 });
    }

    let (mut report, encode_time, encoded_bytes) = if budget.is_some() {
        // Out-of-core path: build the sharded spill store and train over
        // it, reporting spill layout and IO statistics.
        use toc_data::store::ShardedSpillStore;
        let t0 = Instant::now();
        // Container inputs stream v2 segments through the seekable reader
        // (one decoded segment in memory at a time); batch boundaries
        // match `build` on the decoded matrix exactly.
        let store = if from_container && container_version(Path::new(input))? == 2 {
            ShardedSpillStore::build_from_container(Path::new(input), &config)
        } else {
            ShardedSpillStore::build(&x, &y, &config)
        }
        .map_err(|e| format!("{e}"))?;
        let encode_time = t0.elapsed();
        println!(
            "store: {} in-memory + {} spilled batches across {} shards ({} KB spilled)",
            store.in_memory_batches(),
            store.spilled_batches(),
            store.num_shards(),
            store.spilled_bytes() / 1024,
        );
        let report = trainer.train(&spec, &store, None);
        let s = store.stats().snapshot_stable();
        let mut io_line = format!(
            "io: {} reads ({} KB), prefetch {} hits / {} misses",
            s.disk_reads,
            s.bytes_read / 1024,
            s.prefetch_hits,
            s.prefetch_misses,
        );
        // Only an --mbps run sleeps, and its delay is the simulated
        // device's, not the disk's.
        if let Some(plan) = &config.fault {
            io_line += &format!(
                ", simulated device delay {:.1?} (--mbps {})",
                std::time::Duration::from_nanos(
                    plan.stats
                        .throttle_ns
                        .load(std::sync::atomic::Ordering::Relaxed)
                ),
                plan.device_profiles[0].mbps,
            );
        }
        println!("{io_line}");
        // Machine-parseable read stats (the CLI smoke tests parse this
        // line): key=value pairs only, one per field.
        println!(
            "io-read: placement={} lat-p50-us={} lat-p99-us={}",
            config.placement,
            s.latency_percentile_us(50),
            s.latency_percentile_us(99),
        );
        // Machine-parseable placement stats (the CLI smoke tests parse
        // this line too): key=value pairs, list values joined with '/'.
        let p = store.placement_report();
        let join = |it: Vec<String>| {
            if it.is_empty() {
                "-".to_string()
            } else {
                it.join("/")
            }
        };
        println!(
            "placement: policy={} decode-workers={} rebalances={} migrated={} migrated-kb={} \
             ewma-mbps={} shard-kb={}",
            p.policy,
            p.decode_workers,
            p.rebalances,
            p.migrated_batches,
            p.migrated_bytes / 1024,
            join(
                p.shard_ewma_mbps
                    .iter()
                    .map(|m| format!("{m:.1}"))
                    .collect()
            ),
            join(
                p.shard_bytes
                    .iter()
                    .map(|b| (b / 1024).to_string())
                    .collect()
            ),
        );
        let bytes = store.total_bytes();
        (report, encode_time, bytes)
    } else {
        let mut batches = Vec::new();
        let mut start = 0;
        let t0 = Instant::now();
        while start < x.rows() {
            let end = (start + batch_rows).min(x.rows());
            batches.push((
                scheme.encode_with(&x.slice_rows(start, end), &encode_opts),
                y[start..end].to_vec(),
            ));
            start = end;
        }
        let encode_time = t0.elapsed();
        let encoded_bytes: usize = batches.iter().map(|(b, _)| b.size_bytes()).sum();
        let provider = MemoryProvider {
            batches,
            features: d,
        };
        (
            trainer.train(&spec, &provider, None),
            encode_time,
            encoded_bytes,
        )
    };
    let eval = Scheme::Den.encode(&x);
    let err = report.model.error_rate(&eval, &y);
    println!(
        "{model} on {} rows x {d} features [{}]: encode {:.1?} ({} KB), train {:.1?} ({epochs} epochs), training error {:.2}%",
        x.rows(),
        scheme.name(),
        encode_time,
        encoded_bytes / 1024,
        report.train_time,
        err * 100.0,
    );
    Ok(())
}

/// `toc train --follow`: tail the CSV *file itself* — which may still be
/// growing under a concurrent writer — through
/// [`toc_data::follow_rows`] into a *live* streaming store on one
/// thread, while a single online-SGD pass
/// ([`toc_ml::mgd::Trainer::train_online`]) runs concurrently over
/// segments as they seal, reporting prequential error per window. The
/// follower only commits newline-terminated lines (a torn tail mid-write
/// is retried, never half-parsed), re-opens from the top if the file is
/// truncated beneath it, and ends the stream once no new bytes appear
/// for `idle`. The trainer consumes batches in index order, so the loss
/// curve is deterministic in the seed regardless of ingest timing.
#[allow(clippy::too_many_arguments)]
fn train_follow(
    input: &Path,
    trainer: &toc_ml::mgd::Trainer,
    spec: &toc_ml::mgd::ModelSpec,
    config: &toc_data::StoreConfig,
    scheme: Scheme,
    batch_rows: usize,
    encode_opts: EncodeOptions,
    window: usize,
    model: &str,
    poll: std::time::Duration,
    idle: std::time::Duration,
) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use toc_data::{follow_rows, CsvStream, FollowOptions, ShardedSpillStore, StoreIngest};

    // The store needs the feature count up front, so wait (up to the
    // idle timeout) for the first complete row to pin the width.
    let cols = {
        let t0 = Instant::now();
        loop {
            let mut s = CsvStream::open(input).map_err(|e| e.to_string())?;
            if let Some((_, row)) = s.next_row().map_err(|e| e.to_string())? {
                break row.len();
            }
            if t0.elapsed() >= idle {
                // True end of a writer-less file: a final unterminated
                // line still counts as a row.
                if let Some((_, row)) = s.finish_partial().map_err(|e| e.to_string())? {
                    break row.len();
                }
                return Err(format!(
                    "{}: no rows appeared within the idle timeout ({idle:?})",
                    input.display()
                ));
            }
            std::thread::sleep(poll);
        }
    };
    if cols < 2 {
        return Err("need at least one feature column plus the label column".into());
    }
    let d = cols - 1;

    let store = ShardedSpillStore::open_streaming(d, config).map_err(|e| format!("{e}"))?;
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let (mut report, ingested) = std::thread::scope(|s| {
        let store_ref = &store;
        let done_ref = &done;
        let ingest = s.spawn(move || {
            let run = || -> Result<toc_data::IngestStats, String> {
                let mut ing = StoreIngest::new(store_ref, batch_rows, Some(scheme), encode_opts);
                let opts = FollowOptions {
                    poll,
                    idle_timeout: idle,
                };
                follow_rows(input, &opts, &mut || false, &mut |_, row| {
                    let label = if row[d] >= 0.0 { 1.0 } else { -1.0 };
                    ing.push_row(&row[..d], label).map_err(|e| e.to_string())
                })
                .map_err(|e| e.to_string())?;
                ing.finish().map_err(|e| e.to_string())
            };
            let out = run();
            // Always release the trainer, success or failure — it polls
            // this flag to learn the stream has ended.
            done_ref.store(true, Ordering::Release);
            out
        });
        let report =
            trainer.train_online(spec, &store, window, &mut || !done.load(Ordering::Acquire));
        (report, ingest.join())
    });
    let stats = ingested
        .map_err(|_| "ingest thread panicked".to_string())?
        .map_err(|e| format!("ingest: {e}"))?;
    let wall = t0.elapsed();
    // Machine-parseable counters (the CLI smoke tests parse these
    // lines): key=value pairs only.
    println!(
        "ingest: rows={} cols={cols} chunks={} chunk-rows={batch_rows} bytes={} \
         peak-workspace-bytes={} schemes={}",
        stats.rows,
        stats.chunks,
        stats.encoded_bytes,
        stats.peak_workspace_bytes,
        stats.scheme_summary(),
    );
    let snap = store.stats().snapshot_stable();
    println!(
        "backpressure: max-pending={} peak-pending={} stall-ms={}",
        config.max_pending,
        store.peak_pending_appends(),
        snap.ingest_stall_ns / 1_000_000,
    );
    for w in &report.windows {
        println!(
            "window: idx={} batches={}..{} error={:.4} elapsed-ms={}",
            w.window,
            w.start,
            w.end,
            w.error_rate,
            w.elapsed.as_millis(),
        );
    }
    println!(
        "online: windows={} consumed={} windows-during-ingest={} train-ms={} wall-ms={}",
        report.windows.len(),
        report.consumed,
        report.windows_during_ingest,
        report.train_time.as_millis(),
        wall.as_millis(),
    );
    // The follower saw the file go idle, so it is complete now: re-read
    // it for the final training-error evaluation over every row.
    let full = read_csv_matrix(input)?;
    let mut x = DenseMatrix::zeros(full.rows(), d);
    let mut y = Vec::with_capacity(full.rows());
    for r in 0..full.rows() {
        x.row_mut(r).copy_from_slice(&full.row(r)[..d]);
        y.push(if full.get(r, d) >= 0.0 { 1.0 } else { -1.0 });
    }
    let eval = Scheme::Den.encode(&x);
    let err = report.model.error_rate(&eval, &y);
    println!(
        "{model} on {} rows x {d} features [{}]: streamed {} segments, online pass {:.1?} \
         ({} windows of {window}), training error {:.2}%",
        x.rows(),
        scheme.name(),
        stats.chunks,
        report.train_time,
        report.windows.len(),
        err * 100.0,
    );
    Ok(())
}

/// Parse one `--script` line (`key=value` tokens) into a job, on top of
/// the command-line defaults.
fn parse_script_job(
    line: &str,
    index: usize,
    defaults: &toc_ml::MgdConfig,
) -> Result<(String, String, toc_ml::MgdConfig, f64), String> {
    let mut name = format!("j{index}");
    let mut model = "lr".to_string();
    let mut config = defaults.clone();
    let mut share = 1.0f64;
    for tok in line.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("script line {}: expected key=value, got {tok:?}", index + 1))?;
        let bad = |e| format!("script line {}: {k}: {e}", index + 1);
        match k {
            "name" => name = v.to_string(),
            "model" => model = v.to_string(),
            "epochs" => config.epochs = v.parse().map_err(|e| bad(format!("{e}")))?,
            "lr" => config.lr = v.parse().map_err(|e| bad(format!("{e}")))?,
            "seed" => config.seed = v.parse().map_err(|e| bad(format!("{e}")))?,
            "share" => share = v.parse().map_err(|e| bad(format!("{e}")))?,
            other => {
                return Err(format!(
                "script line {}: unknown key {other:?} (expected name/model/epochs/lr/seed/share)",
                index + 1
            ))
            }
        }
    }
    Ok((name, model, config, share))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use toc_data::serve::{JobServer, JobSpec, ServeConfig};
    use toc_data::store::ShardedSpillStore;
    use toc_ml::mgd::{MgdConfig, ModelSpec};
    use toc_ml::LossKind;

    let pos = positional(
        args,
        &[
            "--jobs",
            "--script",
            "--max-concurrent",
            "--cache-budget",
            "--model",
            "--epochs",
            "--lr",
            "--seed",
            "--shares",
            "--scheme",
            "--batch-rows",
            "--budget",
            "--shards",
            "--mbps",
            "--placement",
            "--adaptive",
            "--cla-planner",
            "--cla-sample",
        ],
    )?;
    let [input] = pos[..] else {
        return Err("usage: toc serve <in.csv|in.tocz> [--jobs <n>] ...".into());
    };
    let scheme = parse_scheme(&opt(args, "--scheme").unwrap_or_else(|| "toc".into()))?;
    let batch_rows = count_opt(args, "--batch-rows", 250)?;
    // Serve is the out-of-core mode: the budget defaults to 0, so every
    // batch spills and the shared cache is what keeps hot ones close.
    let budget: usize = num_opt(args, "--budget")?.unwrap_or(0);
    let config = store_config(args, scheme, batch_rows, budget, encode_options(args)?)?;
    let max_concurrent: usize = num_opt(args, "--max-concurrent")?.unwrap_or(0);
    let epochs: usize = num_opt(args, "--epochs")?.unwrap_or(3);
    let lr: f64 = num_opt(args, "--lr")?.unwrap_or(0.05);
    let base_seed: u64 = num_opt(args, "--seed")?.unwrap_or(42);
    let shares: Vec<f64> = match opt(args, "--shares") {
        Some(s) => s
            .split(',')
            .map(|t| t.trim().parse().map_err(|e| format!("--shares: {e}")))
            .collect::<Result<_, String>>()?,
        None => vec![1.0],
    };
    if shares.is_empty() || shares.iter().any(|&s| !(s.is_finite() && s > 0.0)) {
        return Err("--shares entries must be finite and > 0".into());
    }

    let loss_for = |model: &str| match model {
        "lr" => Ok(LossKind::Logistic),
        "svm" => Ok(LossKind::Hinge),
        "linreg" => Ok(LossKind::Squared),
        other => Err(format!("unknown model {other:?}")),
    };
    let defaults = MgdConfig {
        epochs,
        lr,
        seed: base_seed,
        record_curve: true,
        ..Default::default()
    };
    // (name, model-name, config, share) per job: either --jobs clones of
    // the command-line job with consecutive seeds, or one job per
    // non-comment script line.
    let protos: Vec<(String, String, MgdConfig, f64)> = match opt(args, "--script") {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            let lines: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            if lines.is_empty() {
                return Err(format!("{path}: no jobs defined"));
            }
            lines
                .iter()
                .enumerate()
                .map(|(i, l)| parse_script_job(l, i, &defaults))
                .collect::<Result<_, String>>()?
        }
        None => {
            let jobs = count_opt(args, "--jobs", 4)?;
            let model = opt(args, "--model").unwrap_or_else(|| "lr".into());
            (0..jobs)
                .map(|i| {
                    let mut config = defaults.clone();
                    config.seed = base_seed + i as u64;
                    (
                        format!("j{i}"),
                        model.clone(),
                        config,
                        shares[i % shares.len()],
                    )
                })
                .collect()
        }
    };

    let from_container = input.ends_with(".tocz");
    let full = if from_container {
        Container::read(Path::new(input))?.decode()?
    } else {
        read_csv_matrix(Path::new(input))?
    };
    if full.cols() < 2 {
        return Err("need at least one feature column plus the label column".into());
    }
    let d = full.cols() - 1;
    let mut x = DenseMatrix::zeros(full.rows(), d);
    let mut y = Vec::with_capacity(full.rows());
    for r in 0..full.rows() {
        x.row_mut(r).copy_from_slice(&full.row(r)[..d]);
        y.push(if full.get(r, d) >= 0.0 { 1.0 } else { -1.0 });
    }

    let store =
        std::sync::Arc::new(ShardedSpillStore::build(&x, &y, &config).map_err(|e| format!("{e}"))?);
    println!(
        "store: {} in-memory + {} spilled batches across {} shards ({} KB spilled)",
        store.in_memory_batches(),
        store.spilled_batches(),
        store.num_shards(),
        store.spilled_bytes() / 1024,
    );

    let cache_bytes: usize = num_opt(args, "--cache-budget")?.unwrap_or(store.spilled_bytes() / 4);
    let server = JobServer::new(
        std::sync::Arc::clone(&store),
        ServeConfig {
            max_concurrent,
            cache_bytes,
        },
    );

    let eval = Scheme::Den.encode(&x);
    let jobs: Vec<JobSpec> = protos
        .iter()
        .map(|(name, model, config, share)| {
            Ok(JobSpec::new(
                name.clone(),
                ModelSpec::Linear(loss_for(model)?),
                config.clone(),
            )
            .with_share(*share)
            .with_eval(eval.clone(), y.clone()))
        })
        .collect::<Result<_, String>>()?;

    let t0 = Instant::now();
    let outcomes = server.run(jobs);
    let wall = t0.elapsed();

    // Machine-parseable per-job stats (the CLI smoke tests parse these
    // lines): key=value pairs only, one per field.
    for ((_, model, config, _), o) in protos.iter().zip(&outcomes) {
        println!(
            "job: name={} model={model} seed={} share={} epochs={} train-ms={} queue-ms={} \
             qos-ms={} cache-hits={} cache-misses={} batches={} err-pct={:.2}",
            o.name,
            o.seed,
            o.share,
            config.epochs,
            o.train_time.as_millis(),
            o.queue_wait.as_millis(),
            o.qos_wait.as_millis(),
            o.cache_hits,
            o.cache_misses,
            o.batches_visited,
            o.curve.last().copied().unwrap_or(1.0) * 100.0,
        );
    }
    let s = store.stats().snapshot_stable();
    s.assert_consistent();
    let cache = server.cache();
    println!(
        "serve: jobs={} max-concurrent={} peak-concurrent={} cache-budget-kb={} cache-kb={} \
         cache-hits={} cache-misses={} insertions={} evictions={} qos-throttle-ms={} wall-ms={}",
        outcomes.len(),
        max_concurrent,
        server.peak_concurrency(),
        cache_bytes / 1024,
        cache.bytes() / 1024,
        s.cache_hits,
        s.cache_misses,
        cache.insertions(),
        cache.evictions(),
        s.qos_throttle_ns / 1_000_000,
        wall.as_millis(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_parsing() {
        assert_eq!(parse_scheme("toc").unwrap(), Scheme::Toc);
        assert_eq!(parse_scheme("GZIP").unwrap(), Scheme::Gzip);
        assert_eq!(parse_scheme("ans").unwrap(), Scheme::GcAns);
        assert!(parse_scheme("zstd").is_err());
    }

    #[test]
    fn opt_and_positional() {
        let args: Vec<String> = ["a.csv", "--scheme", "toc", "b.tocz"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt(&args, "--scheme").as_deref(), Some("toc"));
        assert_eq!(
            positional(&args, &["--scheme"]).unwrap(),
            vec!["a.csv", "b.tocz"]
        );
    }

    #[test]
    fn boolean_flags_do_not_swallow_positionals() {
        // `--adaptive` and `--follow` take no value: the token after them
        // is still positional.
        let args: Vec<String> = ["--adaptive", "a.csv", "--follow", "--epochs", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(has_flag(&args, "--adaptive"));
        assert!(has_flag(&args, "--follow"));
        let accepted = ["--adaptive", "--follow", "--epochs"];
        assert_eq!(positional(&args, &accepted).unwrap(), vec!["a.csv"]);
        assert_eq!(opt(&args, "--epochs").as_deref(), Some("3"));
        let none: Vec<String> = vec!["a.csv".into()];
        assert!(!has_flag(&none, "--adaptive"));
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        let args: Vec<String> = ["a.csv", "--epochs", "1", "--io-thredas", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = positional(&args, &["--epochs"]).unwrap_err();
        assert!(err.contains("--io-thredas"), "{err}");
        // A value that looks like an option is still the value.
        let args: Vec<String> = ["--scheme", "--x", "a.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(positional(&args, &["--scheme"]).unwrap(), vec!["a.csv"]);
    }

    #[test]
    fn adaptive_flag_combinations() {
        let csv = crate::testutil::TempPath::new("cli-adaptive", "csv");
        cmd_gen(&[
            "--preset".into(),
            "census".into(),
            "--rows".into(),
            "300".into(),
            csv.arg(),
        ])
        .unwrap();
        let base = |extra: &[&str]| {
            let mut args: Vec<String> = vec![
                csv.arg(),
                "--epochs".into(),
                "2".into(),
                "--budget".into(),
                "0".into(),
                "--shards".into(),
                "2".into(),
            ];
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };
        // --adaptive shorthand == --placement adaptive; both together OK.
        cmd_train(&base(&["--adaptive"])).unwrap();
        cmd_train(&base(&["--placement", "adaptive", "--adaptive"])).unwrap();
        // Conflicting explicit placement rejected.
        assert!(cmd_train(&base(&["--placement", "pack", "--adaptive"])).is_err());
        cmd_train(&base(&["--prefetch", "2", "--adaptive"])).unwrap();
        // Out-of-core flags still demand --budget.
        assert!(cmd_train(&[csv.arg(), "--adaptive".into()]).is_err());
    }

    #[test]
    fn end_to_end_compress_decompress() {
        let csv_in = crate::testutil::TempPath::new("cli-e2e", "csv");
        let tocz = crate::testutil::TempPath::new("cli-e2e", "tocz");
        let csv_out = crate::testutil::TempPath::new("cli-e2e-out", "csv");
        let m = DenseMatrix::from_rows(
            (0..80)
                .map(|r| {
                    (0..6)
                        .map(|c| if (r + c) % 2 == 0 { 1.5 } else { 0.0 })
                        .collect()
                })
                .collect(),
        );
        crate::csv::write_matrix(csv_in.path(), &m, None).unwrap();
        cmd_compress(&[csv_in.arg(), tocz.arg(), "--batch-rows".into(), "32".into()]).unwrap();
        cmd_inspect(&[tocz.arg()]).unwrap();
        cmd_decompress(&[tocz.arg(), csv_out.arg()]).unwrap();
        let back = crate::read_csv_matrix(csv_out.path()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn segment_rows_flag_and_v1_container() {
        let csv_in = crate::testutil::TempPath::new("cli-v1", "csv");
        let tocz = crate::testutil::TempPath::new("cli-v1", "tocz");
        let csv_out = crate::testutil::TempPath::new("cli-v1-out", "csv");
        let m = DenseMatrix::from_rows(
            (0..70)
                .map(|r| (0..5).map(|c| ((r * c) % 7) as f64).collect())
                .collect(),
        );
        crate::csv::write_matrix(csv_in.path(), &m, None).unwrap();
        // --segment-rows is the preferred spelling of --batch-rows.
        cmd_compress(&[
            csv_in.arg(),
            tocz.arg(),
            "--segment-rows".into(),
            "16".into(),
        ])
        .unwrap();
        cmd_decompress(&[tocz.arg(), csv_out.arg()]).unwrap();
        assert_eq!(crate::read_csv_matrix(csv_out.path()).unwrap(), m);
        // Legacy v1 output still round-trips (inspect + decompress).
        cmd_compress(&[
            csv_in.arg(),
            tocz.arg(),
            "--segment-rows".into(),
            "16".into(),
            "--container-version".into(),
            "1".into(),
        ])
        .unwrap();
        cmd_inspect(&[tocz.arg()]).unwrap();
        cmd_decompress(&[tocz.arg(), csv_out.arg()]).unwrap();
        assert_eq!(crate::read_csv_matrix(csv_out.path()).unwrap(), m);
        assert!(cmd_compress(&[
            csv_in.arg(),
            tocz.arg(),
            "--container-version".into(),
            "3".into()
        ])
        .is_err());
    }

    #[test]
    fn row_range_projection_matches_full_decode() {
        let csv_in = crate::testutil::TempPath::new("cli-rows", "csv");
        let tocz = crate::testutil::TempPath::new("cli-rows", "tocz");
        let full_out = crate::testutil::TempPath::new("cli-rows-full", "csv");
        let part_out = crate::testutil::TempPath::new("cli-rows-part", "csv");
        let m = DenseMatrix::from_rows(
            (0..90)
                .map(|r| (0..4).map(|c| ((r + c) % 5) as f64).collect())
                .collect(),
        );
        crate::csv::write_matrix(csv_in.path(), &m, None).unwrap();
        for version in ["1", "2"] {
            cmd_compress(&[
                csv_in.arg(),
                tocz.arg(),
                "--segment-rows".into(),
                "16".into(),
                "--container-version".into(),
                version.into(),
            ])
            .unwrap();
            cmd_decompress(&[tocz.arg(), full_out.arg()]).unwrap();
            cmd_decompress(&[
                tocz.arg(),
                part_out.arg(),
                "--rows".into(),
                "20..53".into(),
                "--parallel".into(),
                "3".into(),
            ])
            .unwrap();
            let full = crate::read_csv_matrix(full_out.path()).unwrap();
            let part = crate::read_csv_matrix(part_out.path()).unwrap();
            assert_eq!(part.rows(), 33, "v{version}");
            for r in 0..33 {
                assert_eq!(part.row(r), full.row(r + 20), "v{version} row {r}");
            }
        }
        assert!(parse_row_range("5..3").is_err());
        assert!(parse_row_range("x..3").is_err());
        assert_eq!(parse_row_range("..7").unwrap(), (0, 7));
    }

    #[test]
    fn gen_then_train() {
        let csv = crate::testutil::TempPath::new("cli-train", "csv");
        cmd_gen(&[
            "--preset".into(),
            "census".into(),
            "--rows".into(),
            "400".into(),
            csv.arg(),
        ])
        .unwrap();
        cmd_train(&[
            csv.arg(),
            "--epochs".into(),
            "4".into(),
            "--lr".into(),
            "0.1".into(),
        ])
        .unwrap();
        // Out-of-core path: zero budget spills every batch across two
        // shards with the prefetch pipeline on.
        cmd_train(&[
            csv.arg(),
            "--epochs".into(),
            "2".into(),
            "--budget".into(),
            "0".into(),
            "--shards".into(),
            "2".into(),
            "--prefetch".into(),
            "2".into(),
        ])
        .unwrap();
        cmd_bench(&[csv.arg()]).unwrap();
    }

    #[test]
    fn train_from_container() {
        let csv = crate::testutil::TempPath::new("cli-train-cz", "csv");
        let tocz = crate::testutil::TempPath::new("cli-train-cz", "tocz");
        cmd_gen(&[
            "--preset".into(),
            "census".into(),
            "--rows".into(),
            "300".into(),
            csv.arg(),
        ])
        .unwrap();
        cmd_compress(&[csv.arg(), tocz.arg(), "--segment-rows".into(), "64".into()]).unwrap();
        // In-memory and out-of-core (streaming build) paths both accept
        // the container directly.
        cmd_train(&[tocz.arg(), "--epochs".into(), "2".into()]).unwrap();
        cmd_train(&[
            tocz.arg(),
            "--epochs".into(),
            "2".into(),
            "--budget".into(),
            "0".into(),
            "--shards".into(),
            "2".into(),
        ])
        .unwrap();
    }

    #[test]
    fn cla_planner_flags_and_auto_scheme() {
        let csv_in = crate::testutil::TempPath::new("cli-cla", "csv");
        let tocz = crate::testutil::TempPath::new("cli-cla", "tocz");
        let csv_out = crate::testutil::TempPath::new("cli-cla-out", "csv");
        let m = toc_data::synth::correlated_matrix(120, 8, 4, 3);
        crate::csv::write_matrix(csv_in.path(), &m, None).unwrap();
        for extra in [
            vec!["--scheme".into(), "cla".into()],
            vec![
                "--scheme".into(),
                "cla".into(),
                "--cla-planner".into(),
                "greedy".into(),
            ],
            vec![
                "--scheme".into(),
                "cla".into(),
                "--cla-planner".into(),
                "sample".into(),
                "--cla-sample".into(),
                "32".into(),
            ],
            vec!["--scheme".into(), "auto".into()],
        ] {
            let mut args = vec![csv_in.arg(), tocz.arg()];
            args.extend(extra);
            cmd_compress(&args).unwrap();
            cmd_decompress(&[tocz.arg(), csv_out.arg()]).unwrap();
            let back = crate::read_csv_matrix(csv_out.path()).unwrap();
            assert_eq!(back, m);
        }
        assert!(encode_options(&["--cla-planner".into(), "nope".into()]).is_err());
    }
}
