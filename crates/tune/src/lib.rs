//! # s2d-tune — measurement-based autotuning
//!
//! The workspace's three `Auto` axes ([`Strategy::Auto`](s2d::Strategy),
//! [`KernelFormat::Auto`](s2d::KernelFormat),
//! [`Backend::auto`](s2d::Backend::auto)) pick configurations from
//! *static models*. This crate closes the loop empirically: the
//! [`Tuner`] builds a model-driven shortlist of (strategy ×
//! kernel format × backend/team size) candidates, micro-benchmarks
//! every one of them at the workload's batch width through the real
//! [`Session`](s2d::Session) stack, and returns the measured winner as
//! a [`TunedConfig`]. The kernel ISA is not an axis: the engine picks
//! it, and the results are bitwise identical either way. Verdicts persist
//! in a versioned on-disk [`TuningCache`], so a matrix is tuned once
//! per (fingerprint, k, width) — every later run, including in other
//! processes, replays the verdict in microseconds.
//!
//! ## Tuning a session
//!
//! Run the search (or replay the cached verdict), then build the
//! winner through the ordinary [`Session`](s2d::Session) builder — a tuned session is
//! bitwise identical to one configured by hand with the same choices:
//!
//! ```no_run
//! use s2d::Session;
//! use s2d_tune::{TuneBudget, Tuner};
//! # let a = s2d::gen::rmat::rmat(&s2d::gen::rmat::RmatConfig::graph500(8, 8), 42).to_csr();
//!
//! let tuned = Tuner::new(&a, 4)
//!     .width(8)
//!     .budget(TuneBudget::standard())
//!     .cache("tuning-cache.json")
//!     .run();
//! println!("{}", tuned.render());
//! let w = tuned.winner;
//! let session = Session::builder(&a)
//!     .partitioner(w.strategy, 4)
//!     .plan_kind(w.plan_kind)
//!     .kernel_format(w.format)
//!     .backend(w.backend)
//!     .batch_width(8)
//!     .build();
//! assert_eq!(session.strategy(), Some(w.strategy));
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod tuner;

pub use cache::{CacheEntry, TuningCache, TUNER_VERSION};
pub use tuner::{Measurement, TuneBudget, TunedChoice, TunedConfig, Tuner};
