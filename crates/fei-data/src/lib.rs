//! Datasets and data movement for EE-FEI.
//!
//! The paper trains multinomial logistic regression on MNIST, uniformly
//! spread over 20 edge servers (3 000 samples each), with the IoT network
//! uploading samples to its edge server. We have no MNIST here, so this crate
//! provides:
//!
//! * [`dataset::Dataset`] — a dense labelled dataset;
//! * [`synthetic::SyntheticMnist`] — a generator of MNIST-shaped (784-dim,
//!   10-class) data whose logistic-regression accuracy ceiling is tuned to
//!   the paper's ~92 % (see DESIGN.md, substitution table);
//! * [`partition::Partition`] — IID and label-sharded non-IID federated
//!   splits;
//! * [`stream::IotStream`] — the IoT-side description of a round's data
//!   upload (sample sizes in bytes and arrival schedule) consumed by the
//!   network/energy models.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod dataset;
mod partition;
pub mod stream;
mod synthetic;

pub use dataset::Dataset;
pub use partition::Partition;
pub use stream::IotStream;
pub use synthetic::{SyntheticMnist, SyntheticMnistConfig};
