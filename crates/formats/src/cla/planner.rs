//! Sample-based co-coding planner (the CLA paper's §4 "compression
//! planning", simplified): decide *which columns to co-code together*
//! before paying for a full encoding pass.
//!
//! Two phases:
//!
//! 1. **Estimate.** Draw a deterministic row sample and, per column,
//!    estimate the full-matrix distinct-value count from the sample
//!    (Good–Turing style: the singleton frequency `f1` scales to the
//!    unsampled rows). Pairwise co-occurrence cardinalities are estimated
//!    the same way from the joint sample codes of two groups.
//! 2. **Plan.** Greedy-merge: every column starts as its own group; the
//!    pair of groups whose merge gives the best estimated size reduction
//!    is merged, until no merge helps. Merges respect
//!    [`MAX_GROUP_COLS`] and [`MAX_DICT_ENTRIES`].
//!
//! The planner never looks at more than `sample_rows` rows, so planning a
//! wide batch costs `O(sample_rows · cols)` plus the pairwise estimates
//! that survive the cheap lower-bound prune. Materialization
//! ([`super::ClaBatch::encode_with`]) then builds the dictionaries in one
//! full pass over the planned groups.
//!
//! When is greedy left-to-right still the better choice? On narrow
//! matrices whose correlated columns are adjacent (the common CSV layout),
//! greedy finds the same groups without the `O(cols²)` pairwise scan, and
//! its merge test is exact rather than estimated. `toc bench`'s
//! `planner_ratio` binary compares the two.

use std::collections::HashMap;
use toc_linalg::DenseMatrix;

/// Max dictionary entries per *co-coded* (multi-column) group. Planned
/// merges are rejected when the estimated joint cardinality exceeds this;
/// materialization falls back to singleton groups if the estimate was
/// wrong. Mirrors CLA's sample-based cutoffs and keeps per-op precompute
/// tables small.
pub const MAX_DICT_ENTRIES: usize = 256;
/// Max columns co-coded into one group.
pub const MAX_GROUP_COLS: usize = 16;

/// Which grouping algorithm [`super::ClaBatch::encode_with`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClaPlanner {
    /// Historical behavior: extend the current group with the next column
    /// left-to-right while the merged dictionary stays under
    /// [`MAX_DICT_ENTRIES`] — even when the merge *grows* the encoding.
    Greedy,
    /// Sample-based greedy-merge planning (this module).
    #[default]
    SampleMerge,
}

impl ClaPlanner {
    pub fn name(self) -> &'static str {
        match self {
            ClaPlanner::Greedy => "greedy",
            ClaPlanner::SampleMerge => "sample",
        }
    }
}

impl std::str::FromStr for ClaPlanner {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "greedy" => Ok(ClaPlanner::Greedy),
            "sample" | "sample-merge" | "samplemerge" => Ok(ClaPlanner::SampleMerge),
            other => Err(format!("unknown CLA planner {other:?} (greedy|sample)")),
        }
    }
}

/// CLA encoding options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClaOptions {
    /// Grouping algorithm.
    pub planner: ClaPlanner,
    /// Rows the sample-based planner inspects during planning. Values
    /// `>= nrows` degenerate to an exact plan (estimates become exact
    /// counts over the whole batch).
    pub sample_rows: usize,
}

impl Default for ClaOptions {
    fn default() -> Self {
        Self {
            planner: ClaPlanner::SampleMerge,
            sample_rows: 256,
        }
    }
}

impl ClaOptions {
    /// The historical greedy left-to-right encoder.
    pub fn greedy() -> Self {
        Self {
            planner: ClaPlanner::Greedy,
            sample_rows: 0,
        }
    }
}

/// A planned column-group layout plus its estimated encoded size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaPlan {
    /// Column indexes per group, ascending within and across groups.
    pub groups: Vec<Vec<u32>>,
    /// Estimated [`crate::MatrixBatch::size_bytes`] of the encoding this
    /// plan produces (the quantity the merge loop minimizes).
    pub est_bytes: usize,
    /// Rows actually sampled.
    pub sample_rows: usize,
    /// True when the sample covered every row, making all estimates exact.
    pub exact: bool,
}

/// Estimated `size_bytes` of a DDC group: tag/len overhead, column list,
/// flattened dictionary, and one row index per row at the packed width.
pub(super) fn ddc_size(width: usize, entries: usize, rows: usize) -> usize {
    8 + 4 * width + 8 * entries * width + rows * super::idx_width(entries)
}

/// `size_bytes` of an uncompressed-column group.
pub(super) fn uc_size(rows: usize) -> usize {
    8 + 8 * rows
}

/// Best encodable size for a group: multi-column groups must be DDC;
/// singletons may fall back to UC.
fn group_size(width: usize, entries: usize, rows: usize) -> usize {
    let ddc = ddc_size(width, entries, rows);
    if width == 1 {
        ddc.min(uc_size(rows))
    } else {
        ddc
    }
}

/// Scale a sample distinct count `d_s` with `f1` singletons up to the full
/// batch (Good–Turing: singletons witness the unseen mass).
fn estimate_distinct(d_s: usize, f1: usize, sample: usize, rows: usize) -> usize {
    if sample >= rows {
        return d_s; // exact
    }
    if d_s >= sample {
        return rows; // every sampled value distinct: assume incompressible
    }
    let est = d_s as f64 + f1 as f64 * (rows - sample) as f64 / sample.max(1) as f64;
    (est.ceil() as usize).clamp(d_s, rows)
}

/// Estimate the number of distinct values in a whole matrix by sampling
/// up to `sample_rows` evenly spaced rows and scaling the sample's
/// distinct/singleton counts with `estimate_distinct` (the same
/// Good–Turing rule the CLA planner uses per column group). This is the
/// `distinct` statistic recorded in container zone maps.
pub fn estimate_matrix_distinct(m: &DenseMatrix, sample_rows: usize) -> usize {
    if m.rows() == 0 || m.cols() == 0 {
        return 0;
    }
    let take = sample_rows.clamp(1, m.rows());
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for i in 0..take {
        // Evenly spaced sample; take == rows degenerates to every row.
        let r = i * m.rows() / take;
        for &v in m.row(r) {
            *counts.entry(v.to_bits()).or_insert(0) += 1;
        }
    }
    let d_s = counts.len();
    let f1 = counts.values().filter(|&&c| c == 1).count();
    estimate_distinct(d_s, f1, take * m.cols(), m.rows() * m.cols())
}

/// Bound on the number of groups considered together in one pairwise
/// merge window. The best-first merge is `O(window²)` joint estimates, so
/// very wide matrices (rcv1-style thousands of columns) are planned in
/// contiguous column windows instead of one global scan; correlation that
/// spans windows is missed — the price of keeping planning linear-ish in
/// width. Identical-signature columns are pre-merged *globally* first, so
/// the common wide-matrix redundancy (duplicated / all-zero columns) is
/// still found across window boundaries.
const PLAN_WINDOW_GROUPS: usize = 192;

/// Per-group state during the merge loop: the group's columns, its sample
/// codes (one dictionary id per sampled row), and cardinality estimates.
struct GroupState {
    cols: Vec<u32>,
    codes: Vec<u32>,
    /// Sample statistics: distinct count and singleton count.
    d_s: usize,
    f1: usize,
    /// Estimated full-batch distinct count.
    d_est: usize,
    /// Estimated encoded size under [`group_size`].
    size: usize,
}

/// Distinct/singleton counts plus relabeled codes of the pairwise join of
/// two code vectors.
fn join_codes(a: &[u32], b: &[u32]) -> (Vec<u32>, usize, usize) {
    let mut map: HashMap<u64, u32> = HashMap::with_capacity(a.len());
    let mut counts: Vec<u32> = Vec::new();
    let mut codes = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let key = (x as u64) << 32 | y as u64;
        let next = counts.len() as u32;
        let id = *map.entry(key).or_insert_with(|| {
            counts.push(0);
            next
        });
        counts[id as usize] += 1;
        codes.push(id);
    }
    let f1 = counts.iter().filter(|&&c| c == 1).count();
    (codes, counts.len(), f1)
}

/// Reusable scratch for joint-cardinality estimates. Pruning guarantees
/// both sides have `d_s <= MAX_DICT_ENTRIES`, so the joint id space is at
/// most `MAX_DICT_ENTRIES²` and a generation-stamped dense table beats a
/// hash map by an order of magnitude on the hot planning path.
#[derive(Default)]
struct JoinScratch {
    stamp: Vec<u32>,
    id: Vec<u32>,
    counts: Vec<u32>,
    gen: u32,
}

impl JoinScratch {
    /// Distinct/singleton counts of the pairwise join, without
    /// materializing the joined codes.
    fn join(&mut self, a: &GroupState, b: &GroupState) -> (usize, usize) {
        let space = a.d_s * b.d_s;
        if space == 0 {
            return (0, 0);
        }
        if self.stamp.len() < space {
            self.stamp.resize(space, 0);
            self.id.resize(space, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
        self.counts.clear();
        for (&x, &y) in a.codes.iter().zip(&b.codes) {
            let k = x as usize * b.d_s + y as usize;
            if self.stamp[k] == self.gen {
                self.counts[self.id[k] as usize] += 1;
            } else {
                self.stamp[k] = self.gen;
                self.id[k] = self.counts.len() as u32;
                self.counts.push(1);
            }
        }
        let d = self.counts.len();
        let f1 = self.counts.iter().filter(|&&c| c == 1).count();
        (d, f1)
    }
}

/// Evaluate one candidate merge: `Some((gain, joint_est))` when merging
/// strictly reduces the estimated size under the caps, `None` otherwise.
fn compute_pair(
    gi: &GroupState,
    gj: &GroupState,
    rows: usize,
    sample_len: usize,
    js: &mut JoinScratch,
) -> Option<(isize, usize)> {
    let width = gi.cols.len() + gj.cols.len();
    if width > MAX_GROUP_COLS {
        return None;
    }
    // The joint cardinality is at least max(d_i, d_j): prune pairs whose
    // *best possible* merge already loses, before paying for the join.
    let d_lower = gi.d_est.max(gj.d_est);
    if d_lower > MAX_DICT_ENTRIES
        || (gi.size + gj.size) as isize - ddc_size(width, d_lower, rows) as isize <= 0
    {
        return None;
    }
    let (joint_ds, joint_f1) = if gi.d_s == 1 {
        (gj.d_s, gj.f1) // constant group: the join is the other side
    } else if gj.d_s == 1 {
        (gi.d_s, gi.f1)
    } else {
        js.join(gi, gj)
    };
    let joint_est = estimate_distinct(joint_ds, joint_f1, sample_len, rows).max(d_lower);
    if joint_est > MAX_DICT_ENTRIES {
        return None;
    }
    let gain = (gi.size + gj.size) as isize - ddc_size(width, joint_est, rows) as isize;
    (gain > 0).then_some((gain, joint_est))
}

/// Global fast path before the pairwise scan: columns with *identical*
/// sample signatures (same code vector — duplicated, linearly-renamed, or
/// all-zero columns) co-code trivially: the joint sample cardinality is
/// the shared `d_s`, so merging up to [`MAX_GROUP_COLS`] of them is the
/// merge the pairwise loop would make anyway, found in `O(cols · sample)`
/// and across window boundaries.
fn bucket_identical(states: Vec<GroupState>, rows: usize) -> Vec<GroupState> {
    // Fingerprint the code vectors instead of cloning them as map keys
    // (a wide batch would otherwise clone+hash cols × sample u32s);
    // collisions fall back to an exact comparison against each bucket
    // representative.
    fn fingerprint(codes: &[u32]) -> u64 {
        codes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
            (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut buckets: Vec<Vec<GroupState>> = Vec::new();
    for s in states {
        let candidates = index.entry(fingerprint(&s.codes)).or_default();
        match candidates.iter().find(|&&b| buckets[b][0].codes == s.codes) {
            Some(&b) => buckets[b].push(s),
            None => {
                candidates.push(buckets.len());
                buckets.push(vec![s]);
            }
        }
    }
    let mut out = Vec::new();
    for mut bucket in buckets {
        while !bucket.is_empty() {
            let take_n = bucket.len().min(MAX_GROUP_COLS);
            let chunk: Vec<GroupState> = bucket.drain(..take_n).collect();
            let (d_s, f1, d_est) = (chunk[0].d_s, chunk[0].f1, chunk[0].d_est);
            let width = chunk.len();
            let merged_size = ddc_size(width, d_est, rows);
            if width == 1
                || d_est > MAX_DICT_ENTRIES
                || merged_size >= chunk.iter().map(|g| g.size).sum()
            {
                out.extend(chunk);
                continue;
            }
            let mut cols: Vec<u32> = chunk.iter().flat_map(|g| g.cols.iter().copied()).collect();
            cols.sort_unstable();
            let codes = chunk.into_iter().next().expect("nonempty chunk").codes;
            out.push(GroupState {
                cols,
                codes,
                d_s,
                f1,
                d_est,
                size: merged_size,
            });
        }
    }
    out
}

/// Best-first greedy merge within one window: repeatedly merge the pair
/// with the largest estimated size reduction until no merge helps. Pair
/// gains live in a dense matrix; a merge invalidates only the merged
/// row/column, so each round costs one `O(n)` re-estimate sweep plus an
/// `O(n²)` argmax over cached gains.
fn merge_window(
    mut states: Vec<GroupState>,
    rows: usize,
    sample_len: usize,
    js: &mut JoinScratch,
) -> Vec<GroupState> {
    let n = states.len();
    if n <= 1 {
        return states;
    }
    let mut alive = vec![true; n];
    let mut pair: Vec<Option<(isize, usize)>> = vec![None; n * n];
    for i in 0..n {
        for j in i + 1..n {
            pair[i * n + j] = compute_pair(&states[i], &states[j], rows, sample_len, js);
        }
    }
    loop {
        let mut best: Option<(isize, usize, usize, usize)> = None; // gain, i, j, joint_est
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            for j in i + 1..n {
                if !alive[j] {
                    continue;
                }
                if let Some((g, je)) = pair[i * n + j] {
                    if best.is_none_or(|b| g > b.0) {
                        best = Some((g, i, j, je));
                    }
                }
            }
        }
        let Some((_, i, j, joint_est)) = best else {
            break;
        };
        let (codes, d_s, f1) = join_codes(&states[i].codes, &states[j].codes);
        let mut cols: Vec<u32> = states[i]
            .cols
            .iter()
            .chain(&states[j].cols)
            .copied()
            .collect();
        cols.sort_unstable();
        let width = cols.len();
        states[i] = GroupState {
            cols,
            codes,
            d_s,
            f1,
            d_est: joint_est,
            size: ddc_size(width, joint_est, rows),
        };
        alive[j] = false;
        for (k, &live) in alive.iter().enumerate() {
            if !live || k == i {
                continue;
            }
            let (a, b) = (i.min(k), i.max(k));
            pair[a * n + b] = compute_pair(&states[a], &states[b], rows, sample_len, js);
        }
    }
    states
        .into_iter()
        .zip(alive)
        .filter_map(|(s, a)| a.then_some(s))
        .collect()
}

/// Phase 1 + 2: sample, estimate, greedy-merge. Returns the planned group
/// layout without touching the dictionaries.
pub fn plan(dense: &DenseMatrix, opts: &ClaOptions) -> ClaPlan {
    let rows = dense.rows();
    let cols = dense.cols();
    let sample_n = opts.sample_rows.min(rows);
    let exact = sample_n == rows;
    // Deterministic evenly-spaced sample: reproducible plans, no RNG
    // plumbing, and full coverage in the degenerate `sample >= rows` case.
    let sample: Vec<usize> = if exact {
        (0..rows).collect()
    } else {
        (0..sample_n).map(|i| i * rows / sample_n).collect()
    };

    let states: Vec<GroupState> = (0..cols)
        .map(|c| {
            let mut map: HashMap<u64, u32> = HashMap::new();
            let mut counts: Vec<u32> = Vec::new();
            let mut codes = Vec::with_capacity(sample.len());
            for &r in &sample {
                let bits = dense.get(r, c).to_bits();
                let next = counts.len() as u32;
                let id = *map.entry(bits).or_insert_with(|| {
                    counts.push(0);
                    next
                });
                counts[id as usize] += 1;
                codes.push(id);
            }
            let d_s = counts.len();
            let f1 = counts.iter().filter(|&&n| n == 1).count();
            let d_est = estimate_distinct(d_s, f1, sample.len(), rows);
            GroupState {
                cols: vec![c as u32],
                codes,
                d_s,
                f1,
                d_est,
                size: group_size(1, d_est, rows),
            }
        })
        .collect();

    // Phase 2a: global identical-signature pre-merge (cheap, cross-window).
    let mut rest = bucket_identical(states, rows);
    rest.sort_by_key(|g| g.cols[0]);

    // Phase 2b: best-first pairwise merge, windowed for bounded cost.
    let mut js = JoinScratch::default();
    let mut groups: Vec<GroupState> = Vec::new();
    while !rest.is_empty() {
        let take_n = rest.len().min(PLAN_WINDOW_GROUPS);
        let window: Vec<GroupState> = rest.drain(..take_n).collect();
        groups.extend(merge_window(window, rows, sample.len(), &mut js));
    }

    groups.sort_by_key(|g| g.cols[0]);
    let est_bytes = 16 + groups.iter().map(|g| g.size).sum::<usize>();
    ClaPlan {
        groups: groups.into_iter().map(|g| g.cols).collect(),
        est_bytes,
        sample_rows: sample_n,
        exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated(rows: usize) -> DenseMatrix {
        // Columns 0..4 independent with 4 distinct values; columns 4..8
        // copies of their partner 4 columns earlier.
        let mut m = DenseMatrix::zeros(rows, 8);
        for r in 0..rows {
            for c in 0..4 {
                let v = (((r * 31 + c * 17) % 97) % 4) as f64;
                m.set(r, c, v);
                m.set(r, c + 4, v + 10.0 * (c as f64 + 1.0));
            }
        }
        m
    }

    #[test]
    fn pairs_correlated_columns() {
        let m = correlated(400);
        let p = plan(&m, &ClaOptions::default());
        // Every planned group must keep each column with its perfectly
        // correlated partner (joint distinct = 4, merge always wins).
        for g in &p.groups {
            for &c in g {
                let partner = if c < 4 { c + 4 } else { c - 4 };
                assert!(
                    g.contains(&partner),
                    "{:?} splits pair {c}/{partner}",
                    p.groups
                );
            }
        }
        assert!(p.est_bytes < m.den_size_bytes());
    }

    #[test]
    fn full_sample_is_exact() {
        let m = correlated(50);
        let a = plan(
            &m,
            &ClaOptions {
                planner: ClaPlanner::SampleMerge,
                sample_rows: 50,
            },
        );
        let b = plan(
            &m,
            &ClaOptions {
                planner: ClaPlanner::SampleMerge,
                sample_rows: 5000,
            },
        );
        assert!(a.exact && b.exact);
        assert_eq!(a, b);
    }

    #[test]
    fn estimator_sane() {
        assert_eq!(estimate_distinct(5, 0, 100, 100), 5);
        assert_eq!(estimate_distinct(64, 64, 64, 1000), 1000); // all singletons
        let est = estimate_distinct(10, 2, 100, 1000);
        assert!((10..=28).contains(&est), "{est}");
        assert_eq!(estimate_distinct(3, 0, 50, 1000), 3);
    }

    #[test]
    fn zero_rows_and_constant_columns() {
        let p = plan(&DenseMatrix::zeros(0, 5), &ClaOptions::default());
        assert_eq!(p.groups.iter().map(Vec::len).sum::<usize>(), 5);
        let p = plan(&DenseMatrix::zeros(40, 40), &ClaOptions::default());
        // All-zero columns merge up to the group-width cap.
        assert!(p.groups.iter().all(|g| g.len() <= MAX_GROUP_COLS));
        assert!(p.groups.len() <= 4, "{:?}", p.groups.len());
    }
}
