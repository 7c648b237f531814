//! Seeded input generation. Runs in the orchestrating process before any
//! measured child starts, so it is outside every timed phase and every
//! RSS figure; the workloads themselves receive only the CSV file.

use std::io::Write;
use std::path::Path;

use toc_data::synth::{drifting_matrix, generate_preset, DatasetPreset};
use toc_linalg::DenseMatrix;

/// Write `x` with `labels` as the last column. `f64`'s `Display` prints
/// the shortest decimal that parses back to the same bits, so the
/// workloads read exactly the generated values.
pub fn write_csv(path: &Path, x: &DenseMatrix, labels: &[f64]) -> std::io::Result<u64> {
    assert_eq!(x.rows(), labels.len(), "one label per row");
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for (r, label) in labels.iter().enumerate() {
        line.clear();
        for v in x.row(r) {
            line.push_str(&v.to_string());
            line.push(',');
        }
        line.push_str(&label.to_string());
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// mnist-like rows (784 columns) with the class index (0..9) as label.
pub fn mnist(path: &Path, rows: usize, seed: u64) -> std::io::Result<u64> {
    let ds = generate_preset(DatasetPreset::MnistLike, rows, seed);
    write_csv(path, &ds.x, &ds.labels)
}

/// census-like rows (68 columns) with a ±1 label.
pub fn census(path: &Path, rows: usize, seed: u64) -> std::io::Result<u64> {
    let ds = generate_preset(DatasetPreset::CensusLike, rows, seed);
    write_csv(path, &ds.x, &ds.labels)
}

/// `drifting_matrix` rows with a ±1 label from a seeded linear rule,
/// thresholded at its median score so both classes stay common while the
/// value distribution drifts.
pub fn drifting(path: &Path, rows: usize, cols: usize, seed: u64) -> std::io::Result<u64> {
    let x = drifting_matrix(rows, cols, 4, seed);
    let mut state = seed ^ 0xD1F7_5EED;
    let w: Vec<f64> = (0..cols)
        .map(|_| {
            state = splitmix(state);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    let scores: Vec<f64> = (0..rows)
        .map(|r| x.row(r).iter().zip(&w).map(|(a, b)| a * b).sum())
        .collect();
    let mut sorted = scores.clone();
    crate::stats::sort(&mut sorted);
    let threshold = sorted[rows / 2];
    let labels: Vec<f64> = scores
        .iter()
        .map(|&s| if s >= threshold { 1.0 } else { -1.0 })
        .collect();
    write_csv(path, &x, &labels)
}

fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
