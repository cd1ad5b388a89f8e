//! Dense linear-algebra, statistics, and 1-D optimization kernels used across
//! the EE-FEI workspace.
//!
//! The crate is intentionally self-contained (no external numeric
//! dependencies): the paper's workloads — multinomial logistic regression on
//! 784-dimensional inputs, least-squares calibration of energy coefficients,
//! and scalar convex searches inside the ACS optimizer — only need small,
//! predictable kernels, so we implement exactly those.
//!
//! # Example
//!
//! ```
//! use fei_math::matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod convex;
pub mod func;
pub mod linalg;
pub mod matrix;
pub mod optimize;
pub mod pack;
pub mod reduce;
pub mod stats;

pub use matrix::Matrix;
pub use pack::MatScratch;
pub use stats::{mean, percentile, rmse, std_dev, try_mean, try_percentile, try_std_dev, variance};
