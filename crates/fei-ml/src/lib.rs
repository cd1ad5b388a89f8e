//! Multinomial logistic regression and SGD training for EE-FEI.
//!
//! Implements exactly the learner the paper evaluates (Table II): a
//! 784 → 10 multinomial logistic-regression classifier trained with SGD at
//! learning rate 0.01 and a 0.99 decay per global round, full-batch by
//! default. The model exposes flat parameter (de)serialization so the
//! federated runtime in `fei-fl` can average and ship models as byte
//! payloads.
//!
//! # Example
//!
//! ```
//! use fei_data::{SyntheticMnist, SyntheticMnistConfig};
//! use fei_ml::{LogisticRegression, SgdConfig, LocalTrainer};
//!
//! let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
//! let train = gen.generate(200, 0);
//! let mut model = LogisticRegression::zeros(train.dim(), train.num_classes());
//! let trainer = LocalTrainer::new(SgdConfig::paper_default());
//! let stats = trainer.train(&mut model, &train, 5, 0);
//! assert_eq!(stats.epochs_run, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod metrics;
mod mlp;
mod model;
mod optimizer;
mod pool;
mod scratch;
mod trainer;
mod traits;

pub use metrics::{accuracy, Evaluation};
pub use mlp::Mlp;
pub use model::LogisticRegression;
pub use optimizer::{GradReduction, SgdConfig};
pub use pool::WorkerPool;
pub use scratch::GradScratch;
pub use trainer::{LocalTrainer, TrainStats};
pub use traits::Model;
