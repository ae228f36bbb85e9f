//! # s2d-tune — measurement-based autotuning
//!
//! The workspace's three `Auto` axes ([`Strategy::Auto`](s2d::Strategy),
//! [`KernelFormat::Auto`](s2d::KernelFormat),
//! [`Backend::auto`](s2d::Backend::auto)) pick configurations from
//! *static models*. This crate closes the loop empirically: the
//! [`Tuner`] builds a model-driven shortlist of (strategy ×
//! kernel-format × kernel-ISA × backend/thread-count × batch-width)
//! candidates, micro-benchmarks
//! each one through the real [`Session`] stack, and
//! returns the measured winner as a [`TunedConfig`]. Verdicts persist
//! in a versioned on-disk [`TuningCache`], so a matrix is tuned once
//! per (fingerprint, k, width) — every later run, including in other
//! processes, replays the verdict in microseconds.
//!
//! ## Using the tuner directly
//!
//! ```no_run
//! use s2d_tune::{TuneBudget, Tuner};
//! # let a = s2d::gen::rmat::rmat(&s2d::gen::rmat::RmatConfig::graph500(8, 8), 42).to_csr();
//!
//! let tuned = Tuner::new(&a, 4)
//!     .width(8)
//!     .budget(TuneBudget::standard())
//!     .cache("tuning-cache.json")
//!     .run();
//! println!("{}", tuned.render());
//! ```
//!
//! ## Through the session builder
//!
//! The [`Tuned`] extension trait hangs the same search off
//! [`SessionBuilder`]: `.tuned(budget)` replaces the builder's static
//! `Auto` choices with measured ones and builds the winning session.
//!
//! ```no_run
//! use s2d::Session;
//! use s2d_tune::{TuneBudget, Tuned};
//! # let a = s2d::gen::rmat::rmat(&s2d::gen::rmat::RmatConfig::graph500(8, 8), 42).to_csr();
//!
//! let (session, verdict) = Session::builder(&a)
//!     .partitioner(s2d::Strategy::Auto, 4)
//!     .batch_width(8)
//!     .tuned(TuneBudget::standard())
//!     .tuning_cache("tuning-cache.json")
//!     .build();
//! assert_eq!(session.strategy(), Some(verdict.winner.strategy));
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;

use s2d::{Session, SessionBuilder};

pub mod cache;
pub mod tuner;

pub use cache::{CacheEntry, TuningCache, TUNER_VERSION};
pub use tuner::{Measurement, TuneBudget, TunedChoice, TunedConfig, Tuner};

/// Extension trait putting the tuner on [`SessionBuilder`] — it lives
/// here (not in the facade) because `s2d-tune` sits *above* `s2d` in
/// the dependency order. `use s2d_tune::Tuned;` and every builder
/// grows a `.tuned(budget)` step.
pub trait Tuned<'a> {
    /// Switches the build from model-driven to measurement-driven
    /// configuration: instead of honoring the builder's strategy,
    /// format and backend settings, run (or replay from the cache) the
    /// empirical search for this builder's matrix, `k` and batch width,
    /// and build the measured winner.
    fn tuned(self, budget: TuneBudget) -> TunedBuilder<'a>;
}

impl<'a> Tuned<'a> for SessionBuilder<'a> {
    fn tuned(self, budget: TuneBudget) -> TunedBuilder<'a> {
        TunedBuilder { builder: self, budget, cache: None }
    }
}

/// A [`SessionBuilder`] whose configuration axes will be settled by
/// measurement. Produced by [`Tuned::tuned`]; optionally pointed at a
/// persistent cache with [`TunedBuilder::tuning_cache`]; finished with
/// [`TunedBuilder::build`].
pub struct TunedBuilder<'a> {
    builder: SessionBuilder<'a>,
    budget: TuneBudget,
    cache: Option<PathBuf>,
}

impl<'a> TunedBuilder<'a> {
    /// Persist and replay verdicts through the [`TuningCache`] at
    /// `path`. With a warm cache, [`TunedBuilder::build`] costs one
    /// file read plus the winner's ordinary build — no search, no
    /// timed trials.
    pub fn tuning_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache = Some(path.into());
        self
    }

    /// Runs the search (or replays the cached verdict), builds the
    /// winning configuration, and returns the ready session together
    /// with the verdict it came from.
    ///
    /// The session is built through the ordinary
    /// [`SessionBuilder::build`] path with the winner's settings — a
    /// tuned session is bitwise identical to one configured by hand
    /// with the same choices. Its buffers are sized for the builder's
    /// batch width even when the winner's advisory width is 1 ("serve
    /// requests one at a time"), so callers can always apply at the
    /// width they declared.
    ///
    /// # Panics
    /// Panics if the builder was configured with an explicit
    /// [`partition`](SessionBuilder::partition) instead of a
    /// [`partitioner`](SessionBuilder::partitioner) — the strategy axis
    /// is part of the search space, so the tuner needs the (strategy,
    /// k) form.
    pub fn build(self) -> (Session, TunedConfig) {
        let a = self.builder.matrix();
        let (_, k) = self
            .builder
            .chosen_partitioner()
            .expect("tuned builds need .partitioner(strategy, k), not an explicit partition");
        let width = self.builder.chosen_batch_width();
        let cfg = self.builder.chosen_partitioner_config();
        let mut tuner = Tuner::new(a, k).width(width).budget(self.budget).partitioner_config(cfg);
        if let Some(path) = &self.cache {
            tuner = tuner.cache(path.clone());
        }
        let verdict = tuner.run();
        let w = verdict.winner;
        let session = Session::builder(a)
            .partitioner(w.strategy, k)
            .partitioner_config(cfg)
            .plan_kind(w.plan_kind)
            .kernel_format(w.format)
            .kernel_isa(w.isa)
            .backend(w.backend)
            .batch_width(width)
            .build();
        (session, verdict)
    }
}
