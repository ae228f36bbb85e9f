//! Matrix Market (`.mtx`) reader and writer.
//!
//! Supports the `matrix coordinate` object with `real`, `integer` and
//! `pattern` fields and `general`, `symmetric` and `skew-symmetric`
//! symmetry, which covers every matrix class referenced by the paper.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{Coo, Idx};

/// Most triplets reserved before any entry is read: the size line is a
/// claim, not an allocation budget, so storage beyond this grows with the
/// entries actually present.
const MAX_RESERVE: usize = 1 << 20;

/// Largest row or column count the reader accepts: 2^27 = 134,217,728,
/// the order of the largest Graph500-style matrices in the SuiteSparse
/// collection. The size line is a claim here too: converting to CSR
/// allocates a row pointer of `nrows + 1` words however few entries
/// follow, which an unchecked `4294967295 1 0` would make 34 GB; at
/// the cap it is 1 GiB.
const MAX_DIM: usize = 1 << 27;

// Every index below the cap is a valid `Idx`.
const _: () = assert!(MAX_DIM <= Idx::MAX as usize);

/// Errors produced by the Matrix Market parser.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic violation, with a human-readable message.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(m) => write!(f, "Matrix Market parse error: {m}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

#[derive(Clone, Copy, PartialEq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Clone, Copy, PartialEq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a Matrix Market stream into triplet form.
///
/// Symmetric inputs are expanded (the strict lower triangle is mirrored), so
/// the returned matrix always stores the full pattern.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Coo, MmError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().ok_or_else(|| parse_err("empty input"))??;
    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() != 5 || !tokens[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(format!("bad header line: {header:?}")));
    }
    if !tokens[1].eq_ignore_ascii_case("matrix") || !tokens[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err("only `matrix coordinate` objects are supported"));
    }
    let field = match tokens[3].to_ascii_lowercase().as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(parse_err(format!("unsupported field {other:?}"))),
    };
    let symmetry = match tokens[4].to_ascii_lowercase().as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(parse_err(format!("unsupported symmetry {other:?}"))),
    };

    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|e| parse_err(format!("bad size token {t:?}: {e}"))))
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must contain `nrows ncols nnz`"));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if nrows > MAX_DIM || ncols > MAX_DIM {
        return Err(parse_err(format!(
            "dimensions {nrows} x {ncols} exceed the cap of {MAX_DIM} rows or columns"
        )));
    }

    let per_entry = if symmetry == Symmetry::General { 1 } else { 2 };
    let mut coo = Coo::with_capacity(nrows, ncols, nnz.saturating_mul(per_entry).min(MAX_RESERVE));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|e| parse_err(format!("bad row index: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("missing column index"))?
            .parse()
            .map_err(|e| parse_err(format!("bad column index: {e}")))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(parse_err(format!("entry ({r},{c}) outside 1..={nrows} x 1..={ncols}")));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse::<f64>()
                .map_err(|e| parse_err(format!("bad value: {e}")))?,
        };
        let (r, c) = (r - 1, c - 1);
        coo.push(r, c, v);
        if r != c {
            match symmetry {
                Symmetry::General => {}
                Symmetry::Symmetric => coo.push(c, r, v),
                Symmetry::SkewSymmetric => coo.push(c, r, -v),
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("size line promised {nnz} entries, found {seen}")));
    }
    coo.compress();
    Ok(coo)
}

/// Reads a Matrix Market file from `path`.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<Coo, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes `m` as a `matrix coordinate real general` Matrix Market stream.
pub fn write_matrix_market<W: Write>(m: &Coo, writer: W) -> Result<(), MmError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {v:?}", r + 1, c + 1)?;
    }
    Ok(())
}

/// Writes `m` to the file at `path` in Matrix Market format.
pub fn write_matrix_market_file(m: &Coo, path: impl AsRef<Path>) -> Result<(), MmError> {
    write_matrix_market(m, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let src =
            "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 2\n1 2 5.0\n3 3 -1\n";
        let m = read_matrix_market(src.as_bytes()).expect("parse");
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 1, 5.0), (2, 2, -1.0)]);
    }

    #[test]
    fn expands_symmetric() {
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 1\n2 2\n";
        let m = read_matrix_market(src.as_bytes()).expect("parse");
        let pat: Vec<_> = m.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(pat, vec![(0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn skew_symmetric_negates() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let m = read_matrix_market(src.as_bytes()).expect("parse");
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 1, -3.0), (1, 0, 3.0)]);
    }

    #[test]
    fn roundtrip_write_read() {
        let m = Coo::from_triplets(3, 4, vec![0, 2], vec![3, 1], vec![1.5, -2.25]);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).expect("write");
        let back = read_matrix_market(buf.as_slice()).expect("read");
        assert_eq!(back.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
    }

    #[test]
    fn rejects_bad_counts() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    /// Hostile files: each parses to its defined matrix or to an error
    /// naming the problem, and none panics or allocates what its size
    /// line merely claims.
    #[test]
    fn hostile_files_error_or_parse() {
        const GEN: &str = "%%MatrixMarket matrix coordinate real general\n";
        const SYM: &str = "%%MatrixMarket matrix coordinate real symmetric\n";
        let cases: Vec<(&str, String, Result<Vec<(usize, usize, f64)>, &str>)> = vec![
            (
                "truncated entries",
                format!("{GEN}2 2 2\n1 1 1.0\n"),
                Err("promised 2 entries, found 1"),
            ),
            ("truncated entry", format!("{GEN}2 2 1\n1 1\n"), Err("missing value")),
            ("truncated size line", format!("{GEN}2 2\n"), Err("size line must contain")),
            ("row index 0", format!("{GEN}2 2 1\n0 1 1.0\n"), Err("outside")),
            ("column index 0", format!("{GEN}2 2 1\n1 0 1.0\n"), Err("outside")),
            ("row beyond", format!("{GEN}2 2 1\n3 1 1.0\n"), Err("outside")),
            ("column beyond", format!("{GEN}2 2 1\n1 3 1.0\n"), Err("outside")),
            ("2^32+1 rows", format!("{GEN}4294967297 1 1\n1 1 1.0\n"), Err("exceed the cap")),
            ("2^32+1 columns", format!("{GEN}1 4294967297 1\n1 1 1.0\n"), Err("exceed the cap")),
            ("2^32-1 empty rows", format!("{GEN}4294967295 1 0\n"), Err("exceed the cap")),
            ("cap+1 columns", format!("{GEN}1 {} 0\n", MAX_DIM + 1), Err("exceed the cap")),
            ("10^12 entries", format!("{GEN}2 2 1000000000000\n"), Err("promised 1000000000000")),
            (
                "u64::MAX entries",
                format!("{GEN}2 2 18446744073709551615\n1 1 1.0\n"),
                Err("promised 18446744073709551615"),
            ),
            (
                "symmetric overflow",
                format!("{SYM}2 2 9223372036854775808\n2 1 1.0\n"),
                Err("promised 9223372036854775808"),
            ),
            (
                "entries beyond the count",
                format!("{GEN}2 2 1\n1 1 1.0\n2 2 1.0\n"),
                Err("promised 1 entries, found 2"),
            ),
            ("non-numeric size", format!("{GEN}2 two 1\n"), Err("bad size token")),
            ("negative size", format!("{GEN}-2 2 1\n"), Err("bad size token")),
            ("non-numeric row", format!("{GEN}2 2 1\nx 1 1.0\n"), Err("bad row index")),
            ("non-numeric column", format!("{GEN}2 2 1\n1 x 1.0\n"), Err("bad column index")),
            ("non-numeric value", format!("{GEN}2 2 1\n1 1 one\n"), Err("bad value")),
            (
                "duplicates",
                format!("{GEN}2 2 3\n1 2 1.5\n2 1 1.0\n1 2 2.0\n"),
                Ok(vec![(0, 1, 3.5), (1, 0, 1.0)]),
            ),
            (
                "symmetric duplicates",
                format!("{SYM}2 2 2\n2 1 1.0\n2 1 2.0\n"),
                Ok(vec![(0, 1, 3.0), (1, 0, 3.0)]),
            ),
            (
                "largest dimensions",
                format!("{GEN}{MAX_DIM} {MAX_DIM} 1\n{MAX_DIM} 1 2.0\n"),
                Ok(vec![(MAX_DIM - 1, 0, 2.0)]),
            ),
        ];
        for (name, src, want) in cases {
            let got = read_matrix_market(src.as_bytes()).map(|coo| coo.iter().collect::<Vec<_>>());
            match (got, want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{name}"),
                (Err(e), Err(needle)) => {
                    assert!(e.to_string().contains(needle), "{name}: {e:?} lacks {needle:?}")
                }
                (got, want) => panic!("{name}: got {got:?}, want {want:?}"),
            }
        }
    }
}
