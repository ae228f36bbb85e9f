//! The `.s2dpart` partition file format.
//!
//! A plain-text container for a complete [`SpmvPartition`]:
//!
//! ```text
//! s2d-partition v1
//! <K> <nrows> <ncols> <nnz>
//! y: <nrows part ids>
//! x: <ncols part ids>
//! nz: <nnz owner ids, CSR order>
//! ```
//!
//! The format round-trips exactly and is trivially diffable, which is
//! what reproduction scripts need; it is not a compact archival format.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use s2d_core::partition::SpmvPartition;

/// Errors produced by the partition-file parser.
#[derive(Debug)]
pub enum PartFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural violation with a human-readable message.
    Parse(String),
}

impl std::fmt::Display for PartFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartFileError::Io(e) => write!(f, "I/O error: {e}"),
            PartFileError::Parse(m) => write!(f, "partition file error: {m}"),
        }
    }
}

impl std::error::Error for PartFileError {}

impl From<std::io::Error> for PartFileError {
    fn from(e: std::io::Error) -> Self {
        PartFileError::Io(e)
    }
}

fn perr(msg: impl Into<String>) -> PartFileError {
    PartFileError::Parse(msg.into())
}

/// Writes `p` (for a matrix with `nnz` nonzeros) to `writer`.
pub fn write_partition<W: Write>(p: &SpmvPartition, writer: W) -> Result<(), PartFileError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "s2d-partition v1")?;
    writeln!(w, "{} {} {} {}", p.k, p.y_part.len(), p.x_part.len(), p.nz_owner.len())?;
    for (label, ids) in [("y:", &p.y_part), ("x:", &p.x_part), ("nz:", &p.nz_owner)] {
        write!(w, "{label}")?;
        for id in ids.iter() {
            write!(w, " {id}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes `p` to the file at `path`.
pub fn write_partition_file(
    p: &SpmvPartition,
    path: impl AsRef<Path>,
) -> Result<(), PartFileError> {
    write_partition(p, std::fs::File::create(path)?)
}

fn parse_ids(line: &str, label: &str, expect: usize, k: usize) -> Result<Vec<u32>, PartFileError> {
    let rest = line
        .strip_prefix(label)
        .ok_or_else(|| perr(format!("expected line starting with {label:?}")))?;
    let ids: Vec<u32> = rest
        .split_whitespace()
        .map(|t| t.parse::<u32>().map_err(|e| perr(format!("bad part id {t:?}: {e}"))))
        .collect::<Result<_, _>>()?;
    if ids.len() != expect {
        return Err(perr(format!("{label} expected {expect} ids, found {}", ids.len())));
    }
    if let Some(bad) = ids.iter().find(|&&id| id as usize >= k) {
        return Err(perr(format!("{label} part id {bad} out of range (K = {k})")));
    }
    Ok(ids)
}

/// Reads a partition file.
pub fn read_partition<R: Read>(reader: R) -> Result<SpmvPartition, PartFileError> {
    let mut lines = BufReader::new(reader).lines();
    let mut next = || -> Result<String, PartFileError> {
        lines.next().ok_or_else(|| perr("unexpected end of file"))?.map_err(PartFileError::from)
    };
    let magic = next()?;
    if magic.trim() != "s2d-partition v1" {
        return Err(perr(format!("bad magic line {magic:?}")));
    }
    let sizes: Vec<usize> = next()?
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|e| perr(format!("bad size {t:?}: {e}"))))
        .collect::<Result<_, _>>()?;
    if sizes.len() != 4 {
        return Err(perr("size line must be `K nrows ncols nnz`"));
    }
    let (k, nrows, ncols, nnz) = (sizes[0], sizes[1], sizes[2], sizes[3]);
    if k == 0 {
        return Err(perr("K must be positive"));
    }
    let y_part = parse_ids(&next()?, "y:", nrows, k)?;
    let x_part = parse_ids(&next()?, "x:", ncols, k)?;
    let nz_owner = parse_ids(&next()?, "nz:", nnz, k)?;
    Ok(SpmvPartition { k, x_part, y_part, nz_owner })
}

/// Reads the partition file at `path`.
pub fn read_partition_file(path: impl AsRef<Path>) -> Result<SpmvPartition, PartFileError> {
    read_partition(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpmvPartition {
        SpmvPartition {
            k: 3,
            x_part: vec![0, 1, 2, 2],
            y_part: vec![2, 1, 0],
            nz_owner: vec![0, 0, 1, 2, 2],
        }
    }

    #[test]
    fn roundtrips_exactly() {
        let p = sample();
        let mut buf = Vec::new();
        write_partition(&p, &mut buf).expect("write");
        let back = read_partition(buf.as_slice()).expect("read");
        assert_eq!(back, p);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_partition("nonsense v9\n1 0 0 0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, PartFileError::Parse(_)));
    }

    #[test]
    fn rejects_out_of_range_part() {
        let src = "s2d-partition v1\n2 2 2 2\ny: 0 1\nx: 0 2\nnz: 0 1\n";
        let err = read_partition(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn rejects_wrong_counts() {
        let src = "s2d-partition v1\n2 3 2 2\ny: 0 1\nx: 0 1\nnz: 0 1\n";
        let err = read_partition(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 3 ids"), "{err}");
    }

    #[test]
    fn rejects_truncated_file() {
        let src = "s2d-partition v1\n2 2 2 2\ny: 0 1\n";
        assert!(read_partition(src.as_bytes()).is_err());
    }

    /// Hostile files: huge declared sizes over short lines, truncation,
    /// overflowed and non-numeric tokens. Each reads to an error naming
    /// the problem, never a panic or an allocation of the declared size.
    #[test]
    fn hostile_files_are_errors() {
        const MAGIC: &str = "s2d-partition v1\n";
        let cases = [
            ("huge rows", format!("{MAGIC}2 1000000000000 1 1\ny: 0\nx: 0\nnz: 0\n"), "expected"),
            (
                "huge columns",
                format!("{MAGIC}2 1 1000000000000 1\ny: 0\nx: 0\nnz: 0\n"),
                "expected",
            ),
            (
                "u64::MAX nonzeros",
                format!("{MAGIC}2 1 1 18446744073709551615\ny: 0\nx: 0\nnz: 0\n"),
                "expected",
            ),
            ("size beyond u64", format!("{MAGIC}2 18446744073709551616 1 1\n"), "bad size"),
            (
                "2^32-1 empty rows",
                format!("{MAGIC}2 4294967295 1 0\ny:\nx: 0\nnz:\n"),
                "y: expected 4294967295 ids, found 0",
            ),
            ("K = 0", format!("{MAGIC}0 1 1 1\ny: 0\nx: 0\nnz: 0\n"), "K must be positive"),
            ("truncated size line", format!("{MAGIC}2 1 1\n"), "size line"),
            ("truncated after magic", MAGIC.to_string(), "end of file"),
            ("truncated ids", format!("{MAGIC}2 2 1 1\ny: 0\n"), "expected 2 ids, found 1"),
            ("truncated lines", format!("{MAGIC}2 1 1 1\ny: 0\n"), "end of file"),
            ("too many ids", format!("{MAGIC}2 1 1 1\ny: 0 1\nx: 0\nnz: 0\n"), "expected 1 ids"),
            (
                "part id beyond u32",
                format!("{MAGIC}2 1 1 1\ny: 4294967296\nx: 0\nnz: 0\n"),
                "bad part id",
            ),
            ("negative part id", format!("{MAGIC}2 1 1 1\ny: -1\nx: 0\nnz: 0\n"), "bad part id"),
            ("non-numeric size", format!("{MAGIC}2 one 1 1\n"), "bad size"),
            ("missing label", format!("{MAGIC}2 1 1 1\n0\nx: 0\nnz: 0\n"), "starting with"),
        ];
        for (name, src, needle) in cases {
            match read_partition(src.as_bytes()) {
                Err(e) => assert!(e.to_string().contains(needle), "{name}: {e} lacks {needle:?}"),
                Ok(p) => panic!("{name}: read {p:?}"),
            }
        }
    }
}
