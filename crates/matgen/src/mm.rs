//! Matrix Market I/O.
//!
//! The paper's Table I problems come from the SuiteSparse collection, which
//! distributes `.mtx` files. We ship synthetic analogues (see [`crate::suite`]),
//! but this reader lets anyone with the real files reproduce the distributed
//! experiments on the original data: drop the file path into the figure
//! binaries' `--matrix` option.
//!
//! Supported: `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` (pattern entries get
//! value 1.0). Comments (`%`) and blank lines are skipped.

use aj_linalg::{CooMatrix, CsrMatrix, LinalgError};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// The most triplets the reader reserves before it has read them.
const MAX_RESERVED_TRIPLETS: usize = 1 << 16;

/// Parses a Matrix Market stream into CSR.
///
/// A size line that declares more entries than its shape holds, a
/// symmetric matrix that is not square, or a shape whose row or column
/// counters cannot be allocated is an [`LinalgError::InvalidStructure`].
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix, LinalgError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| LinalgError::InvalidStructure("empty Matrix Market stream".into()))?
        .map_err(|e| LinalgError::InvalidStructure(format!("I/O error: {e}")))?;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_ascii_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(LinalgError::InvalidStructure(format!(
            "bad header: {header}"
        )));
    }
    if h[2] != "coordinate" {
        return Err(LinalgError::InvalidStructure(
            "only coordinate format is supported".into(),
        ));
    }
    let pattern = match h[3].as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(LinalgError::InvalidStructure(format!(
                "unsupported field type: {other}"
            )))
        }
    };
    let symmetric = match h[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(LinalgError::InvalidStructure(format!(
                "unsupported symmetry: {other}"
            )))
        }
    };

    let mut size_line: Option<String> = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| LinalgError::InvalidStructure(format!("I/O error: {e}")))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line =
        size_line.ok_or_else(|| LinalgError::InvalidStructure("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|s| {
            s.parse()
                .map_err(|_| LinalgError::InvalidStructure(format!("bad size: {s}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(LinalgError::InvalidStructure(
            "size line needs rows cols nnz".into(),
        ));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if symmetric && nrows != ncols {
        return Err(LinalgError::InvalidStructure(format!(
            "a symmetric matrix must be square, not {nrows}×{ncols}"
        )));
    }
    if nrows.checked_mul(ncols).is_some_and(|cells| nnz > cells) {
        return Err(LinalgError::InvalidStructure(format!(
            "size line declares {nnz} entries, more than a {nrows}×{ncols} matrix holds"
        )));
    }
    // The conversion keeps one counter per row and per column: refuse a
    // shape whose counters the allocator cannot hold instead of aborting.
    for (dim, what) in [(nrows, "rows"), (ncols, "columns")] {
        let fits = dim
            .checked_add(1)
            .is_some_and(|len| Vec::<usize>::new().try_reserve_exact(len).is_ok());
        if !fits {
            return Err(LinalgError::InvalidStructure(format!(
                "size line declares {dim} {what}, more than memory holds"
            )));
        }
    }
    // Memory grows with the entries actually read, not with the count the
    // size line declares.
    let declared = if symmetric {
        nnz.saturating_mul(2)
    } else {
        nnz
    };
    let mut coo = CooMatrix::with_capacity(nrows, ncols, declared.min(MAX_RESERVED_TRIPLETS));
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(|e| LinalgError::InvalidStructure(format!("I/O error: {e}")))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LinalgError::InvalidStructure(format!("bad entry line: {t}")))?;
        let j: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LinalgError::InvalidStructure(format!("bad entry line: {t}")))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| LinalgError::InvalidStructure(format!("bad entry line: {t}")))?
        };
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(LinalgError::IndexOutOfBounds {
                index: i.max(j),
                bound: nrows.max(ncols),
            });
        }
        // Matrix Market is 1-based.
        if symmetric && i != j {
            coo.push_sym(i - 1, j - 1, v);
        } else {
            coo.push(i - 1, j - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(LinalgError::InvalidStructure(format!(
            "declared {nnz} entries but found {seen}"
        )));
    }
    Ok(coo.to_csr())
}

/// Reads a `.mtx` file from disk.
pub fn read_matrix_market_file(path: &Path) -> Result<CsrMatrix, LinalgError> {
    let f = std::fs::File::open(path)
        .map_err(|e| LinalgError::InvalidStructure(format!("open {}: {e}", path.display())))?;
    read_matrix_market(f)
}

/// Writes `a` in `coordinate real general` format.
pub fn write_matrix_market<W: Write>(a: &CsrMatrix, mut w: W) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by aj-matrices")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for i in 0..a.nrows() {
        for (j, v) in a.row_iter(i) {
            writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_general() {
        let a = crate::fd::laplacian_2d(3, 4);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_entries_are_mirrored() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n% comment\n3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 2.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn rejects_bad_headers_and_counts() {
        assert!(read_matrix_market("nonsense\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes()
        )
        .is_err());
        // Declared 2 entries, provided 1.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n".as_bytes()
        )
        .is_err());
        // 1-based index 0 is invalid.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn size_lines_past_the_shape_or_memory_are_typed_errors() {
        let rejected = |text: &str, says: &str| match read_matrix_market(text.as_bytes()) {
            Err(LinalgError::InvalidStructure(msg)) => assert!(msg.contains(says), "{msg}"),
            other => panic!("{text:?} gave {other:?}"),
        };
        let symmetric = "%%MatrixMarket matrix coordinate real symmetric\n";
        let general = "%%MatrixMarket matrix coordinate real general\n";
        rejected(&format!("{general}2 2 5\n"), "entries");
        rejected(&format!("{symmetric}2 3 1\n1 3 1.0\n"), "square");
        rejected(&format!("{general}18446744073709551615 1 0\n"), "rows");
        rejected(&format!("{general}1 4611686018427387904 0\n"), "columns");
        // A count that fits the shape reserves no more than it reads.
        let a = read_matrix_market(format!("{general}1 1 1\n1 1 2.0\n").as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 2.0);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "%%MatrixMarket matrix coordinate real general\n%c\n\n2 2 1\n% mid comment\n\n2 2 5.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(1, 1), 5.0);
    }

    #[test]
    fn missing_file_is_reported() {
        assert!(read_matrix_market_file(Path::new("/nonexistent/x.mtx")).is_err());
    }
}
