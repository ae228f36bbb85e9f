//! Implementation of the `s2d` command-line tool.
//!
//! Subcommands (see `s2d help`):
//!
//! * `gen` — generate a synthetic matrix (paper suites or raw generators)
//!   and write it as Matrix Market;
//! * `partition` — read a Matrix Market file, partition it with any of
//!   the paper's methods, write a partition file;
//! * `analyze` — print the quality metrics of a partition (load
//!   imbalance, communication volume, message counts, modelled speedup);
//! * `spmv` — execute the partitioned SpMV and verify it against the
//!   serial reference;
//! * `reproduce` — the paper's tables, figure and ablations as views
//!   over one quality sweep, with checked expectations.
//!
//! Argument parsing is hand-rolled (`--flag value` pairs) to keep the
//! dependency set to the workspace crates.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod partfile;
mod reproduce;

pub use commands::run;
