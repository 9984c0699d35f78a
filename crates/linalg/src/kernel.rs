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
//! * [`StorageFormat::RcmBlocked`] — cache blocking: the block's rows are
//!   RCM-reordered on their in-block connectivity, in-block columns are
//!   renumbered to match, and out-of-block ("ghost") columns are packed at
//!   the tail. Each sweep first gathers every needed `x` entry into a
//!   contiguous scratch vector — a software prefetch of the ghost entries
//!   ahead of the row loop — then relaxes rows in the permuted order and
//!   scatters results back through the permutation. Reordering columns
//!   within a row changes the floating-point accumulation order, so this
//!   format matches CSR to roundoff (≈1e-12 relative), not bitwise.
//!
//! A kernel is built once per block ([`SweepKernel::build`]) and reused for
//! every sweep; [`SweepKernel::work_nnz`] reports the per-sweep work
//! (padded entries included) for the simulators' cost models.

use crate::csr::CsrMatrix;
use crate::error::LinalgError;
use crate::perm::Permutation;
use crate::rcm::reverse_cuthill_mckee;
use std::collections::HashMap;
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
    /// RCM-reordered, ghost-packed cache blocking.
    RcmBlocked,
    /// Placeholder resolved at plan time by [`auto_select`] from measured
    /// row statistics; never reaches [`SweepKernel::build`].
    Auto,
}

impl StorageFormat {
    /// Short name without parameters (`csr`, `sellc`, `rcm-blocked`,
    /// `auto`).
    pub fn name(&self) -> &'static str {
        match self {
            StorageFormat::Csr => "csr",
            StorageFormat::SellC { .. } => "sellc",
            StorageFormat::RcmBlocked => "rcm-blocked",
            StorageFormat::Auto => "auto",
        }
    }

    /// Canonical selector string that re-parses to this format
    /// (`csr`, `sellc:c=8`, `rcm-blocked`).
    pub fn to_spec(&self) -> String {
        match self {
            StorageFormat::SellC { c } => format!("sellc:c={c}"),
            f => f.name().to_string(),
        }
    }

    /// Whether sweeps in this format reproduce the CSR sweep bit-for-bit
    /// (modulo `-0.0` vs `+0.0`). `Auto` is bit-compatible because
    /// [`auto_select`] only ever picks bit-compatible formats.
    pub fn is_bit_compatible(&self) -> bool {
        !matches!(self, StorageFormat::RcmBlocked)
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
/// SIMD-friendly layout to pay, otherwise scalar CSR wins. Only
/// bit-compatible formats are ever chosen, so `auto` never changes
/// results, only speed.
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

/// RCM cache-blocked storage for one block: a permuted local CSR whose
/// columns index a gather scratch (owned rows in permuted order, then the
/// packed ghost tail).
#[derive(Debug, Clone)]
struct RcmData {
    rows_start: usize,
    nrows: usize,
    ncols: usize,
    /// Block-local RCM permutation, `perm[new] = old`.
    perm: Permutation,
    indptr: Vec<usize>,
    /// Scratch-local columns: `0..nrows` are permuted in-block rows,
    /// `nrows..` are ghost slots in first-use order.
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Global column of each ghost slot.
    ext_cols: Vec<usize>,
    /// Gather buffer, `nrows + ext_cols.len()` long.
    scratch: Vec<f64>,
}

#[derive(Debug, Clone)]
enum KernelData {
    Csr,
    Sell(SellData),
    Rcm(RcmData),
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
            StorageFormat::RcmBlocked => KernelData::Rcm(build_rcm(a, rows.clone())?),
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
    /// Equals the block's nonzero count for `csr` and `rcm-blocked`; for
    /// `sellc` it includes the chunk padding (the lanes compute it whether
    /// or not it is real).
    pub fn work_nnz(&self, a: &CsrMatrix) -> usize {
        match &self.data {
            KernelData::Csr => a.indptr()[self.rows.end] - a.indptr()[self.rows.start],
            KernelData::Sell(s) => s.widths.iter().map(|w| w * s.c).sum(),
            KernelData::Rcm(r) => r.vals.len(),
        }
    }

    /// Block residuals `out[k] = b_blk[k] − (A x)[rows.start + k]`.
    ///
    /// `a` must be the matrix the kernel was built from, `x` a full-width
    /// vector (`a.ncols()` long), and `b_blk`/`out` block-local slices.
    /// `&mut self` because the RCM variant reuses an internal gather buffer.
    ///
    /// # Panics
    /// Panics on any length mismatch.
    pub fn residuals_into(&mut self, a: &CsrMatrix, x: &[f64], b_blk: &[f64], out: &mut [f64]) {
        let nrows = self.rows.len();
        assert_eq!(x.len(), a.ncols(), "kernel: x length mismatch");
        assert_eq!(b_blk.len(), nrows, "kernel: b length mismatch");
        assert_eq!(out.len(), nrows, "kernel: out length mismatch");
        match &mut self.data {
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
            KernelData::Rcm(r) => {
                assert_eq!(r.ncols, a.ncols(), "kernel built from a different matrix");
                rcm_residuals(r, x, b_blk, out);
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

fn build_rcm(a: &CsrMatrix, rows: Range<usize>) -> Result<RcmData, LinalgError> {
    let nrows = rows.len();
    // In-block connectivity pattern (values irrelevant; diagonal ensured so
    // RCM's degree counts are consistent).
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::new();
    indptr.push(0);
    for i in rows.clone() {
        let mut has_diag = false;
        let before = indices.len();
        for &gj in a.row_indices(i) {
            if rows.contains(&gj) {
                has_diag |= gj == i;
                indices.push(gj - rows.start);
            }
        }
        if !has_diag {
            let local = i - rows.start;
            let pos = indices[before..].partition_point(|&j| j < local) + before;
            indices.insert(pos, local);
        }
        indptr.push(indices.len());
    }
    let nnz = indices.len();
    let pattern = CsrMatrix::from_raw_parts(nrows, nrows, indptr, indices, vec![1.0; nnz])?;
    let perm = reverse_cuthill_mckee(&pattern);
    let inv = perm.inverse();

    let scratch_bound = nrows + (a.indptr()[rows.end] - a.indptr()[rows.start]);
    if scratch_bound > u32::MAX as usize {
        return Err(LinalgError::InvalidStructure(format!(
            "rcm-blocked needs u32 scratch indices; block may touch {scratch_bound} entries"
        )));
    }
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    let mut ext_cols: Vec<usize> = Vec::new();
    let mut ext_slot: HashMap<usize, u32> = HashMap::new();
    let mut row: Vec<(u32, f64)> = Vec::new();
    indptr.push(0);
    for new in 0..nrows {
        let gi = rows.start + perm.as_slice()[new];
        row.clear();
        for (gj, v) in a.row_iter(gi) {
            let col = if rows.contains(&gj) {
                inv.as_slice()[gj - rows.start] as u32
            } else {
                *ext_slot.entry(gj).or_insert_with(|| {
                    ext_cols.push(gj);
                    (nrows + ext_cols.len() - 1) as u32
                })
            };
            row.push((col, v));
        }
        // Ascending scratch order: permuted in-block neighbours (cache-hot)
        // first, ghost tail last. This reorders the accumulation relative to
        // CSR — the documented roundoff-level difference of this format.
        row.sort_unstable_by_key(|&(c, _)| c);
        for &(c, v) in &row {
            cols.push(c);
            vals.push(v);
        }
        indptr.push(cols.len());
    }
    let scratch = vec![0.0; nrows + ext_cols.len()];
    Ok(RcmData {
        rows_start: rows.start,
        nrows,
        ncols: a.ncols(),
        perm,
        indptr,
        cols,
        vals,
        ext_cols,
        scratch,
    })
}

fn rcm_residuals(r: &mut RcmData, x: &[f64], b_blk: &[f64], out: &mut [f64]) {
    // Gather phase: one streaming pass pulls every value the block will
    // read — owned rows in permuted order, then the ghost tail — so the row
    // loop below runs entirely out of the contiguous scratch (the "software
    // prefetch of ghost entries ahead of the row loop").
    let perm = r.perm.as_slice();
    for new in 0..r.nrows {
        r.scratch[new] = x[r.rows_start + perm[new]];
    }
    for (s, &g) in r.ext_cols.iter().enumerate() {
        r.scratch[r.nrows + s] = x[g];
    }
    for new in 0..r.nrows {
        let mut acc = 0.0;
        for k in r.indptr[new]..r.indptr[new + 1] {
            // SAFETY: build assigned every column a slot `< scratch.len()`.
            let xv = unsafe { *r.scratch.get_unchecked(r.cols[k] as usize) };
            acc += r.vals[k] * xv;
        }
        let old = perm[new];
        out[old] = b_blk[old] - acc;
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
        let mut f = vec![StorageFormat::Csr, StorageFormat::RcmBlocked];
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
        let mut k = SweepKernel::build(&a, rows.clone(), StorageFormat::Csr).unwrap();
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
            let mut csr = SweepKernel::build(&a, rows.clone(), StorageFormat::Csr).unwrap();
            csr.residuals_into(&a, &x, &b[rows.clone()], &mut reference);
            for c in SELL_LANE_CHOICES {
                let mut k =
                    SweepKernel::build(&a, rows.clone(), StorageFormat::SellC { c }).unwrap();
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
                    let mut k =
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
    fn rcm_blocked_matches_csr_to_roundoff() {
        let a = laplacian_2d(9, 13);
        let (x, b) = test_vectors(a.nrows());
        for rows in [0..a.nrows(), 20..90, 40..41] {
            let mut reference = vec![0.0; rows.len()];
            let mut csr = SweepKernel::build(&a, rows.clone(), StorageFormat::Csr).unwrap();
            csr.residuals_into(&a, &x, &b[rows.clone()], &mut reference);
            let mut k = SweepKernel::build(&a, rows.clone(), StorageFormat::RcmBlocked).unwrap();
            let mut out = vec![f64::NAN; rows.len()];
            k.residuals_into(&a, &x, &b[rows.clone()], &mut out);
            for (o, r) in out.iter().zip(&reference) {
                assert!(
                    (o - r).abs() <= 1e-12 * (1.0 + r.abs()),
                    "rcm {o} vs csr {r} in rows {rows:?}"
                );
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
        let rcm = SweepKernel::build(&a, rows.clone(), StorageFormat::RcmBlocked).unwrap();
        assert_eq!(rcm.work_nnz(&a), nnz);
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
            let mut k = SweepKernel::build(&a, 4..4, f).unwrap();
            let mut out: Vec<f64> = Vec::new();
            k.residuals_into(&a, &[0.0; 9], &[], &mut out);
            assert_eq!(k.work_nnz(&a), 0, "{f}");
        }
    }

    #[test]
    fn format_spec_round_trips_and_display() {
        assert_eq!(StorageFormat::Csr.to_spec(), "csr");
        assert_eq!(StorageFormat::SellC { c: 4 }.to_spec(), "sellc:c=4");
        assert_eq!(StorageFormat::RcmBlocked.to_spec(), "rcm-blocked");
        assert_eq!(StorageFormat::default(), StorageFormat::Csr);
        assert_eq!(format!("{}", StorageFormat::SellC { c: 8 }), "sellc:c=8");
        assert!(StorageFormat::Csr.is_bit_compatible());
        assert!(StorageFormat::SellC { c: 2 }.is_bit_compatible());
        assert!(!StorageFormat::RcmBlocked.is_bit_compatible());
    }

    #[test]
    fn rcm_kernel_handles_rows_without_stored_diagonal() {
        // Row 1 has no diagonal entry; the pattern builder must still insert
        // it for the RCM degree bookkeeping.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(2, 2, 2.0);
        let a = coo.to_csr();
        let (x, b) = test_vectors(3);
        let mut k = SweepKernel::build(&a, 0..3, StorageFormat::RcmBlocked).unwrap();
        let mut out = vec![0.0; 3];
        k.residuals_into(&a, &x, &b, &mut out);
        for i in 0..3 {
            assert!((out[i] - (b[i] - a.row_dot(i, &x))).abs() < 1e-14);
        }
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
