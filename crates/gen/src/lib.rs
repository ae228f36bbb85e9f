//! Synthetic sparse matrix generators.
//!
//! The paper evaluates on UFL/SNAP matrices that cannot be downloaded
//! offline. Each generator here reproduces the *shape statistics* that
//! drive the paper's comparisons — size, density, degree skew, dense
//! rows/columns, scale-free tails — as documented per matrix in
//! `DESIGN.md`:
//!
//! * [`fem`] — 3D stencil matrices (crystk02, turon_m, trdheim, 3dtube,
//!   pkustk12);
//! * [`denserow`] — background-sparse matrices with a geometric tail of
//!   dense rows and columns (c-big, ASIC_680k, boyd2, lp1, ins2, rajat30,
//!   pattern1);
//! * [`powerlaw`] — Chung–Lu scale-free graphs (com-Youtube);
//! * [`rmat`](mod@rmat) — the R-MAT generator with the paper's exact parameters
//!   (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) for rmat_20;
//! * [`suites`] — Table I ("suite A") and Table IV ("suite B") doubles,
//!   with a [`Scale`] knob (`tiny` | `small` | `paper`).

#![forbid(unsafe_code)]

pub mod denserow;
pub mod fem;
pub mod powerlaw;
pub mod rmat;
pub mod suites;

pub use rmat::{rmat, RmatConfig};
pub use suites::{suite_a, suite_b, MatrixSpec, PaperStats, Scale};
