//! Storage-format abstraction for block relaxation sweeps.
//!
//! Every engine in the reproduction spends its time in the same inner loop:
//! residuals `r_i = b_i − Σ_j a_ij x_j` over a contiguous block of rows,
//! followed by a cheap correction. In the paper's model the *rate* at which
//! those relaxations retire is what drives asynchronous convergence, so this
//! module makes the row storage pluggable behind one [`SweepKernel`] type:
//!
//! * [`StorageFormat::Csr`] — the existing [`CsrMatrix`] rows, untouched.
//!   The default, and bit-identical to the historical scalar loop.
//! * [`StorageFormat::SellC`] — a SELL-C-σ layout (σ = the whole block):
//!   rows sorted by descending nonzero count, grouped into chunks of `C`
//!   rows, padded to the chunk's widest row, and stored chunk-column-major
//!   so `C` rows advance in lockstep. The inner loop is a fixed-trip-count
//!   lane loop over plain `acc[l] += v[l] * x[col[l]]` updates — portable
//!   code the compiler auto-vectorizes, with no `mul_add` (which would
//!   change rounding and fall back to a libm call without the `fma` target
//!   feature). Each row's products accumulate in its CSR column order, so
//!   results equal the CSR sweep exactly (padding contributes `0·x₀`, which
//!   can only flip a `-0.0` result to `+0.0`; when `x₀` is not finite that
//!   product is NaN, so such a block runs the CSR row loop instead).
//!   The layout is built by a stable counting sort on row length followed
//!   by direct placement into arrays allocated at their final size.
//!
//! A kernel is built once per block ([`SweepKernel::build`]) and reused for
//! every sweep; [`SweepKernel::work_nnz`] reports the per-sweep work
//! (padded entries included) for the simulators' cost models.

use crate::csr::CsrMatrix;
use crate::error::LinalgError;
use std::ops::Range;

/// Default SELL chunk height: 8 lanes of `f64` (one AVX-512 register, two
/// AVX2 registers) amortizes per-row loop overhead without excessive padding
/// on the suite's 5–10 nnz/row stencil matrices.
pub const DEFAULT_SELL_LANES: usize = 8;

/// Lane counts the SELL kernel is monomorphized for.
pub const SELL_LANE_CHOICES: [usize; 4] = [2, 4, 8, 16];

/// How a sweep kernel stores its block of rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StorageFormat {
    /// Scalar loop over the [`CsrMatrix`] rows (default, bit-identical to
    /// the historical engines).
    #[default]
    Csr,
    /// SELL-C-σ with `c` rows per chunk (`c ∈ {2, 4, 8, 16}`).
    SellC {
        /// Chunk height (SIMD lane count).
        c: usize,
    },
    /// Placeholder resolved at plan time by [`auto_select`] from measured
    /// row statistics; never reaches [`SweepKernel::build`].
    Auto,
}

impl StorageFormat {
    /// Short name without parameters (`csr`, `sellc`, `auto`).
    pub fn name(&self) -> &'static str {
        match self {
            StorageFormat::Csr => "csr",
            StorageFormat::SellC { .. } => "sellc",
            StorageFormat::Auto => "auto",
        }
    }

    /// Canonical selector string that re-parses to this format
    /// (`csr`, `sellc:c=8`, `auto`).
    pub fn to_spec(&self) -> String {
        match self {
            StorageFormat::SellC { c } => format!("sellc:c={c}"),
            f => f.name().to_string(),
        }
    }
}

/// Padding-ratio threshold for [`auto_select`]: SELL is chosen when the
/// padded work `work_nnz` exceeds the true nnz by at most this fraction.
/// Past it, the SIMD win is eaten by padded lanes (the measured 1.61×
/// SELL speedup on thermomech_dm:tiny had ratio ≈ 0.02).
pub const AUTO_PADDING_MAX: f64 = 0.25;

/// Picks a concrete storage format for `a` from measured row statistics —
/// the plan-time resolution of `format=auto`.
///
/// The decision rule replicates the SELL-8 chunk arithmetic without
/// building a kernel: rows sorted by descending nnz are grouped into
/// chunks of [`DEFAULT_SELL_LANES`], each chunk padded to its widest row;
/// when the resulting padding ratio `(work_nnz − nnz) / nnz` stays at or
/// under [`AUTO_PADDING_MAX`] the row lengths are regular enough for the
/// SIMD-friendly layout to pay, otherwise scalar CSR wins. Both formats
/// give the CSR sweep's values, so `auto` never changes results, only
/// speed.
pub fn auto_select(a: &CsrMatrix) -> StorageFormat {
    let n = a.nrows();
    let nnz = a.nnz();
    if n < DEFAULT_SELL_LANES || nnz == 0 {
        return StorageFormat::Csr;
    }
    let mut row_nnz: Vec<usize> = (0..n).map(|i| a.row_nnz(i)).collect();
    row_nnz.sort_unstable_by(|x, y| y.cmp(x));
    // Matches `work_nnz` of a built SELL kernel: every chunk — including a
    // partial trailing one — is padded to the full lane count.
    let work: usize = row_nnz
        .chunks(DEFAULT_SELL_LANES)
        .map(|chunk| chunk[0] * DEFAULT_SELL_LANES)
        .sum();
    let padding = (work - nnz) as f64 / nnz as f64;
    if padding <= AUTO_PADDING_MAX {
        StorageFormat::SellC {
            c: DEFAULT_SELL_LANES,
        }
    } else {
        StorageFormat::Csr
    }
}

impl std::fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_spec())
    }
}

/// SELL-C-σ storage for one block: chunk `k` holds sorted-order rows
/// `k·C..(k+1)·C`, entry `(lane l, slot t)` at `chunk_ptr[k] + t·C + l`.
#[derive(Debug, Clone)]
struct SellData {
    c: usize,
    nrows: usize,
    ncols: usize,
    /// Entry offset of each chunk (length `nchunks + 1`).
    chunk_ptr: Vec<usize>,
    /// Widest row of each chunk.
    widths: Vec<usize>,
    /// Column indices, `u32` to halve index bandwidth; pad slots use 0.
    cols: Vec<u32>,
    /// Values aligned with `cols`; pad slots are 0.0.
    vals: Vec<f64>,
    /// `perm[sorted position] = block-local row`.
    perm: Vec<u32>,
}

#[derive(Debug, Clone)]
enum KernelData {
    Csr,
    Sell(SellData),
}

/// A relaxation kernel for one contiguous block of matrix rows, built once
/// and reused every sweep. See the [module docs](self) for the formats.
#[derive(Debug, Clone)]
pub struct SweepKernel {
    rows: Range<usize>,
    format: StorageFormat,
    data: KernelData,
}

impl SweepKernel {
    /// Builds a kernel for `rows` of `a` in the requested format.
    ///
    /// # Errors
    /// Rejects SELL lane counts outside [`SELL_LANE_CHOICES`], matrices too
    /// wide for `u32` column indices, and out-of-range row blocks.
    pub fn build(
        a: &CsrMatrix,
        rows: Range<usize>,
        format: StorageFormat,
    ) -> Result<Self, LinalgError> {
        if rows.end > a.nrows() || rows.start > rows.end {
            return Err(LinalgError::IndexOutOfBounds {
                index: rows.end,
                bound: a.nrows(),
            });
        }
        let data = match format {
            StorageFormat::Csr => KernelData::Csr,
            StorageFormat::SellC { c } => {
                if !SELL_LANE_CHOICES.contains(&c) {
                    return Err(LinalgError::InvalidStructure(format!(
                        "sellc lane count {c} not one of {SELL_LANE_CHOICES:?}"
                    )));
                }
                KernelData::Sell(build_sell(a, rows.clone(), c)?)
            }
            StorageFormat::Auto => {
                // `auto` is a plan-time placeholder; drivers must resolve
                // it (via `auto_select`) before kernels are built.
                return Err(LinalgError::InvalidStructure(
                    "format=auto must be resolved to a concrete format before kernel build".into(),
                ));
            }
        };
        Ok(SweepKernel { rows, format, data })
    }

    /// The global row range this kernel covers.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Rows in the block.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// The storage format the kernel was built with.
    pub fn format(&self) -> StorageFormat {
        self.format
    }

    /// Entries touched per sweep — the number the cost models should charge.
    /// Equals the block's nonzero count for `csr`; for `sellc` it includes the chunk padding (the lanes compute it whether
    /// or not it is real).
    pub fn work_nnz(&self, a: &CsrMatrix) -> usize {
        match &self.data {
            KernelData::Csr => a.indptr()[self.rows.end] - a.indptr()[self.rows.start],
            KernelData::Sell(s) => s.widths.iter().map(|w| w * s.c).sum(),
        }
    }

    /// Block residuals `out[k] = b_blk[k] − (A x)[rows.start + k]`.
    ///
    /// `a` must be the matrix the kernel was built from, `x` a full-width
    /// vector (`a.ncols()` long), and `b_blk`/`out` block-local slices.
    ///
    /// # Panics
    /// Panics on any length mismatch.
    pub fn residuals_into(&self, a: &CsrMatrix, x: &[f64], b_blk: &[f64], out: &mut [f64]) {
        let nrows = self.rows.len();
        assert_eq!(x.len(), a.ncols(), "kernel: x length mismatch");
        assert_eq!(b_blk.len(), nrows, "kernel: b length mismatch");
        assert_eq!(out.len(), nrows, "kernel: out length mismatch");
        match &self.data {
            KernelData::Csr => csr_residuals(a, self.rows.clone(), x, b_blk, out),
            KernelData::Sell(s) => {
                assert_eq!(s.ncols, a.ncols(), "kernel built from a different matrix");
                // Pad slots add `0·x[0]`, which is NaN when `x[0]` is ±∞ or
                // NaN and would poison every padded row; the CSR loop
                // gives the same rows without the pad term.
                if x.first().is_some_and(|v| !v.is_finite()) {
                    csr_residuals(a, self.rows.clone(), x, b_blk, out);
                    return;
                }
                match s.c {
                    2 => sell_residuals::<2>(s, x, b_blk, out),
                    4 => sell_residuals::<4>(s, x, b_blk, out),
                    8 => sell_residuals::<8>(s, x, b_blk, out),
                    16 => sell_residuals::<16>(s, x, b_blk, out),
                    c => unreachable!("unvalidated sell lane count {c}"),
                }
            }
        }
    }
}

/// The scalar row loop: `out[k] = b_blk[k] − (A x)[rows.start + k]`.
fn csr_residuals(a: &CsrMatrix, rows: Range<usize>, x: &[f64], b_blk: &[f64], out: &mut [f64]) {
    for (k, i) in rows.enumerate() {
        out[k] = b_blk[k] - a.row_dot(i, x);
    }
}

fn build_sell(a: &CsrMatrix, rows: Range<usize>, c: usize) -> Result<SellData, LinalgError> {
    if a.ncols() > u32::MAX as usize {
        return Err(LinalgError::InvalidStructure(format!(
            "sellc needs u32 column indices; matrix has {} columns",
            a.ncols()
        )));
    }
    let nrows = rows.len();
    if nrows > 0 && a.ncols() == 0 {
        return Err(LinalgError::InvalidStructure(
            "sellc pad column needs at least one matrix column".into(),
        ));
    }
    let row_nnz = |r: usize| a.row_nnz(rows.start + r);
    // σ = the whole block: a stable counting sort by descending nonzero
    // count, so rows sharing a chunk have similar widths and padding stays
    // small. Bucket `widest − w` holds the width-`w` rows in block order.
    let widest = (0..nrows).map(row_nnz).max().unwrap_or(0);
    let mut next = vec![0usize; widest + 1];
    for r in 0..nrows {
        next[widest - row_nnz(r)] += 1;
    }
    let mut offset = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = offset;
        offset += count;
    }
    let mut perm = vec![0u32; nrows];
    for r in 0..nrows {
        let slot = &mut next[widest - row_nnz(r)];
        perm[*slot] = r as u32;
        *slot += 1;
    }
    // Each chunk is as wide as its first lane, the widest of its rows.
    let widths: Vec<usize> = perm
        .iter()
        .step_by(c)
        .map(|&r| row_nnz(r as usize))
        .collect();
    let mut chunk_ptr = Vec::with_capacity(widths.len() + 1);
    chunk_ptr.push(0);
    for &w in &widths {
        chunk_ptr.push(chunk_ptr[chunk_ptr.len() - 1] + w * c);
    }
    // Pad slots keep column 0 and value 0.0.
    let len = chunk_ptr[widths.len()];
    let mut cols = vec![0u32; len];
    let mut vals = vec![0.0; len];
    for (p, &r) in perm.iter().enumerate() {
        let i = rows.start + r as usize;
        let first = chunk_ptr[p / c] + p % c;
        for (t, (&j, &v)) in a.row_indices(i).iter().zip(a.row_values(i)).enumerate() {
            cols[first + t * c] = j as u32;
            vals[first + t * c] = v;
        }
    }
    Ok(SellData {
        c,
        nrows,
        ncols: a.ncols(),
        chunk_ptr,
        widths,
        cols,
        vals,
        perm,
    })
}

/// The SELL inner loop, monomorphized per lane count so `acc` is a
/// fixed-size array and the lane loop has a constant trip count — the shape
/// LLVM turns into packed multiply/add plus gathered loads. Accumulation
/// stays per-lane (= per-row, in CSR column order), so no reassociation.
fn sell_residuals<const C: usize>(s: &SellData, x: &[f64], b_blk: &[f64], out: &mut [f64]) {
    debug_assert_eq!(s.c, C);
    for k in 0..s.widths.len() {
        let base = s.chunk_ptr[k];
        let w = s.widths[k];
        let cols = &s.cols[base..base + w * C];
        let vals = &s.vals[base..base + w * C];
        let mut acc = [0.0f64; C];
        for t in 0..w {
            let cc = &cols[t * C..(t + 1) * C];
            let vv = &vals[t * C..(t + 1) * C];
            for l in 0..C {
                // SAFETY: build stored only columns `< ncols` (pad slots use
                // column 0, valid because `ncols ≥ 1` is checked when the
                // block is non-empty) and the caller asserted
                // `x.len() == ncols`.
                let xv = unsafe { *x.get_unchecked(cc[l] as usize) };
                acc[l] += vv[l] * xv;
            }
        }
        let lane0 = k * C;
        for (l, &a) in acc.iter().enumerate().take(s.nrows - lane0.min(s.nrows)) {
            let row = s.perm[lane0 + l] as usize;
            out[row] = b_blk[row] - a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 2-D 5-point Laplacian, built locally to keep the crate self-contained.
    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                coo.push(idx(i, j), idx(i, j), 4.0);
                if i + 1 < nx {
                    coo.push_sym(idx(i, j), idx(i + 1, j), -1.0);
                }
                if j + 1 < ny {
                    coo.push_sym(idx(i, j), idx(i, j + 1), -1.0);
                }
            }
        }
        coo.to_csr()
    }

    fn test_vectors(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + 11) as f64 * 0.618).sin())
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 13 + 5) as f64 * 0.414).cos())
            .collect();
        (x, b)
    }

    fn all_formats() -> Vec<StorageFormat> {
        let mut f = vec![StorageFormat::Csr];
        for c in SELL_LANE_CHOICES {
            f.push(StorageFormat::SellC { c });
        }
        f
    }

    #[test]
    fn csr_kernel_matches_row_dot_bitwise() {
        let a = laplacian_2d(7, 9);
        let (x, b) = test_vectors(a.nrows());
        let rows = 10..40;
        let k = SweepKernel::build(&a, rows.clone(), StorageFormat::Csr).unwrap();
        let mut out = vec![f64::NAN; rows.len()];
        k.residuals_into(&a, &x, &b[rows.clone()], &mut out);
        for (o, i) in rows.clone().enumerate() {
            assert_eq!(out[o].to_bits(), (b[i] - a.row_dot(i, &x)).to_bits());
        }
    }

    #[test]
    fn sell_matches_csr_exactly_for_every_lane_count() {
        let a = laplacian_2d(11, 8);
        let (x, b) = test_vectors(a.nrows());
        // Uneven block sizes exercise the partial last chunk.
        for rows in [0..a.nrows(), 3..50, 17..18, 5..5] {
            let mut reference = vec![0.0; rows.len()];
            let csr = SweepKernel::build(&a, rows.clone(), StorageFormat::Csr).unwrap();
            csr.residuals_into(&a, &x, &b[rows.clone()], &mut reference);
            for c in SELL_LANE_CHOICES {
                let k = SweepKernel::build(&a, rows.clone(), StorageFormat::SellC { c }).unwrap();
                let mut out = vec![f64::NAN; rows.len()];
                k.residuals_into(&a, &x, &b[rows.clone()], &mut out);
                // `==`, not bit comparison: the pad term `0·x₀` may turn an
                // exact `-0.0` into `+0.0`, which is the one allowed delta.
                assert_eq!(out, reference, "sellc:c={c} rows {rows:?}");
            }
        }
    }

    /// An 8×8 matrix with diagonal 4, three extra entries in row 0 and one
    /// in row 5: row 0 is the only row reading column 0, and the rows that
    /// share a SELL chunk with row 0 or row 5 get pad slots reading `x[0]`.
    fn padded_8x8() -> CsrMatrix {
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 4.0);
        }
        for j in 1..4 {
            coo.push(0, j, -1.0);
        }
        coo.push(5, 6, -1.0);
        coo.to_csr()
    }

    fn same_or_both_nan(a: f64, b: f64) -> bool {
        a == b || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn sell_padding_never_reads_a_non_finite_x0() {
        // A pad slot stores column 0 with value 0.0, and `0·x[0]` is NaN
        // for an infinite or NaN `x[0]`; rows that never read column 0
        // must stay what CSR makes them.
        let a = padded_8x8();
        let b = vec![1.0; 8];
        for x0 in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut x = vec![0.5; 8];
            x[0] = x0;
            let mut reference = vec![0.0; 8];
            csr_residuals(&a, 0..8, &x, &b, &mut reference);
            assert_eq!(reference[1..], [-1.0, -1.0, -1.0, -1.0, -0.5, -1.0, -1.0]);
            for c in SELL_LANE_CHOICES {
                for rows in [0..8, 1..8, 0..5] {
                    let k =
                        SweepKernel::build(&a, rows.clone(), StorageFormat::SellC { c }).unwrap();
                    let mut out = vec![0.0; rows.len()];
                    k.residuals_into(&a, &x, &b[rows.clone()], &mut out);
                    for (o, r) in out.iter().zip(&reference[rows.clone()]) {
                        assert!(
                            same_or_both_nan(*o, *r),
                            "sellc:c={c} rows {rows:?} x0={x0}: {out:?} vs {reference:?}"
                        );
                    }
                }
            }
        }
    }

    /// The comparison-sort SELL build the counting sort replaced, kept as
    /// the reference layout.
    fn build_sell_by_comparison_sort(a: &CsrMatrix, rows: Range<usize>, c: usize) -> SellData {
        let nrows = rows.len();
        let mut perm: Vec<u32> = (0..nrows as u32).collect();
        perm.sort_by_key(|&r| std::cmp::Reverse(a.row_nnz(rows.start + r as usize)));
        let nchunks = nrows.div_ceil(c);
        let mut chunk_ptr = vec![0];
        let mut widths = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for k in 0..nchunks {
            let lanes = &perm[k * c..nrows.min((k + 1) * c)];
            let w = lanes
                .iter()
                .map(|&r| a.row_nnz(rows.start + r as usize))
                .max()
                .unwrap_or(0);
            for t in 0..w {
                for l in 0..c {
                    let (col, val) = lanes
                        .get(l)
                        .map(|&r| rows.start + r as usize)
                        .filter(|&i| t < a.row_nnz(i))
                        .map_or((0u32, 0.0), |i| {
                            (a.row_indices(i)[t] as u32, a.row_values(i)[t])
                        });
                    cols.push(col);
                    vals.push(val);
                }
            }
            widths.push(w);
            chunk_ptr.push(cols.len());
        }
        SellData {
            c,
            nrows,
            ncols: a.ncols(),
            chunk_ptr,
            widths,
            cols,
            vals,
            perm,
        }
    }

    /// A random `n × n` matrix with a diagonal and 0..=`max_extra` random
    /// off-diagonal entries per row, so row lengths are irregular.
    fn random_irregular(rng: &mut StdRng, n: usize, max_extra: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, rng.random_range(2.0..8.0));
            for _ in 0..rng.random_range(0..=max_extra) {
                coo.push(i, rng.random_range(0..n), rng.random_range(-1.0..1.0));
            }
        }
        coo.to_csr()
    }

    #[test]
    fn counting_sort_build_matches_the_comparison_sort_layout() {
        let mut rng = StdRng::seed_from_u64(16);
        for trial in 0..40 {
            let n = rng.random_range(1..80);
            let a = random_irregular(&mut rng, n, 1 + trial % 9);
            let lo = rng.random_range(0..n);
            let hi = rng.random_range(lo..=n);
            let blocks = [0..n, lo..hi, lo..lo, lo..lo + 1, 0..n.min(17)];
            for rows in blocks {
                for c in SELL_LANE_CHOICES {
                    let got = build_sell(&a, rows.clone(), c).unwrap();
                    let want = build_sell_by_comparison_sort(&a, rows.clone(), c);
                    let ctx = format!("trial {trial}, rows {rows:?}, c = {c}");
                    assert_eq!(got.perm, want.perm, "{ctx}");
                    assert_eq!(got.chunk_ptr, want.chunk_ptr, "{ctx}");
                    assert_eq!(got.widths, want.widths, "{ctx}");
                    assert_eq!(got.cols, want.cols, "{ctx}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.vals), bits(&want.vals), "{ctx}");
                    assert_eq!((got.c, got.nrows, got.ncols), (c, rows.len(), n), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn work_nnz_counts_padding_only_for_sell() {
        let a = laplacian_2d(6, 6);
        let rows = 0..a.nrows();
        let nnz = a.nnz();
        let csr = SweepKernel::build(&a, rows.clone(), StorageFormat::Csr).unwrap();
        assert_eq!(csr.work_nnz(&a), nnz);
        let sell = SweepKernel::build(&a, rows, StorageFormat::SellC { c: 8 }).unwrap();
        assert!(sell.work_nnz(&a) >= nnz, "padding never shrinks work");
        // 5-point stencil rows have 3..5 nnz; padding is bounded by the
        // widest-minus-narrowest row per chunk.
        assert!(sell.work_nnz(&a) <= nnz * 2);
    }

    #[test]
    fn build_rejects_bad_lane_counts_and_ranges() {
        let a = laplacian_2d(4, 4);
        assert!(SweepKernel::build(&a, 0..16, StorageFormat::SellC { c: 3 }).is_err());
        assert!(SweepKernel::build(&a, 0..16, StorageFormat::SellC { c: 0 }).is_err());
        assert!(SweepKernel::build(&a, 0..17, StorageFormat::Csr).is_err());
        for f in all_formats() {
            assert!(SweepKernel::build(&a, 4..12, f).is_ok(), "{f}");
        }
    }

    #[test]
    fn empty_blocks_are_fine() {
        let a = laplacian_2d(3, 3);
        for f in all_formats() {
            let k = SweepKernel::build(&a, 4..4, f).unwrap();
            let mut out: Vec<f64> = Vec::new();
            k.residuals_into(&a, &[0.0; 9], &[], &mut out);
            assert_eq!(k.work_nnz(&a), 0, "{f}");
        }
    }

    #[test]
    fn format_spec_round_trips_and_display() {
        assert_eq!(StorageFormat::Csr.to_spec(), "csr");
        assert_eq!(StorageFormat::SellC { c: 4 }.to_spec(), "sellc:c=4");
        assert_eq!(StorageFormat::default(), StorageFormat::Csr);
        assert_eq!(format!("{}", StorageFormat::SellC { c: 8 }), "sellc:c=8");
    }

    #[test]
    fn auto_select_prefers_sell_on_regular_rows() {
        // Stencil rows are near-uniform width: padding stays tiny.
        let a = laplacian_2d(16, 16);
        let picked = auto_select(&a);
        assert_eq!(
            picked,
            StorageFormat::SellC {
                c: DEFAULT_SELL_LANES
            }
        );
        // The predicted work matches a really-built kernel's work_nnz.
        let k = SweepKernel::build(&a, 0..a.nrows(), picked).unwrap();
        let mut row_nnz: Vec<usize> = (0..a.nrows()).map(|i| a.row_nnz(i)).collect();
        row_nnz.sort_unstable_by(|x, y| y.cmp(x));
        let predicted: usize = row_nnz
            .chunks(DEFAULT_SELL_LANES)
            .map(|c| c[0] * DEFAULT_SELL_LANES)
            .sum();
        assert_eq!(k.work_nnz(&a), predicted);
    }

    #[test]
    fn auto_select_falls_back_to_csr_on_irregular_rows() {
        // An arrow matrix: one dense row/column, the rest diagonal. Every
        // SELL chunk containing the dense row pads massively.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for j in 1..n {
            coo.push_sym(0, j, -0.01);
        }
        let a = coo.to_csr();
        assert_eq!(auto_select(&a), StorageFormat::Csr);
    }

    #[test]
    fn auto_select_tiny_matrix_is_csr() {
        let a = CsrMatrix::identity(4);
        assert_eq!(auto_select(&a), StorageFormat::Csr);
    }

    #[test]
    fn auto_format_rejected_by_kernel_build() {
        let a = laplacian_2d(4, 4);
        let r = SweepKernel::build(&a, 0..a.nrows(), StorageFormat::Auto);
        assert!(matches!(r, Err(LinalgError::InvalidStructure(_))));
        assert_eq!(StorageFormat::Auto.name(), "auto");
        assert_eq!(StorageFormat::Auto.to_spec(), "auto");
    }
}
