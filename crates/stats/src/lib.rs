//! Statistical utilities for fault-injection campaigns.
//!
//! The DSN 2001 paper reports every outcome category as a percentage of the
//! injected faults together with a 95 % confidence interval computed with the
//! normal approximation to the binomial distribution. This crate provides:
//!
//! * [`proportion`] — binomial proportion estimates with normal-approximation
//!   and Wilson score confidence intervals;
//! * [`sampling`] — seeded uniform samplers used to draw fault locations and
//!   injection times exactly the way GOOFI's set-up phase does;
//! * [`summary`] — running univariate summaries (mean / variance / extrema)
//!   used by the benchmark harness.
//!
//! # Example
//!
//! ```
//! use bera_stats::proportion::Proportion;
//!
//! // 50 severe failures out of 9290 injected faults (Table 2 of the paper).
//! let p = Proportion::new(50, 9290);
//! let ci = p.normal_ci95();
//! assert!((p.estimate() - 0.00538).abs() < 1e-4);
//! assert!(ci.half_width > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proportion;
pub mod sampling;
pub mod summary;

pub use proportion::{Confidence, Interval, Proportion};
pub use sampling::UniformSampler;
pub use summary::Summary;
