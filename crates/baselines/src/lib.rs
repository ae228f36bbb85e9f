//! Baseline partitioning methods the paper compares against.
//!
//! * [`oned`] — 1D rowwise/columnwise via the column-net/row-net
//!   hypergraph model [Catalyurek & Aykanat 1999] (the paper's `1D`);
//! * [`fine_grain`] — 2D nonzero-based fine-grain partitioning
//!   [Catalyurek & Aykanat 2001] (the paper's `2D`);
//! * [`checkerboard`] — Cartesian (checkerboard) partitioning with
//!   multi-constraint column balance [Catalyurek & Aykanat 2001]
//!   (the paper's `2D-b`);
//! * [`boman`] — the post-processing of Boman, Devine & Rajamanickam
//!   2013 mapping a 1D partition onto a `√K×√K` mesh (the paper's `1D-b`);
//! * [`medium_grain`] — the medium-grain method of Pelt & Bisseling 2014
//!   adapted to emit an s2D partition (the paper's `s2D-mg`).

#![forbid(unsafe_code)]

pub mod boman;
pub mod checkerboard;
pub mod fine_grain;
pub mod medium_grain;
pub mod oned;

pub use boman::partition_1d_b;
pub use checkerboard::{partition_checkerboard, CheckerboardPartition};
pub use fine_grain::partition_2d_fine_grain;
pub use medium_grain::partition_s2d_mg;
pub use oned::{partition_1d_colwise, partition_1d_rowwise, OnedPartition};
