//! # ce-nn — minimal neural-network substrate
//!
//! The reproduction hint for this paper is a "thin DL ecosystem": none of the
//! allowed dependencies provide tensors or autograd, so this crate implements
//! the minimum needed, from scratch:
//!
//! * [`matrix`]: a row-major `f32` matrix with the handful of BLAS-like ops
//!   the models use;
//! * [`layers`]: dense layers and activations with explicit forward/backward
//!   and built-in Adam state;
//! * [`mlp`]: a sequential multi-layer perceptron exposing `forward` /
//!   `backward` / `step` so composite architectures (MSCN's set convolutions,
//!   the GIN encoder in `ce-gnn`, autoregressive heads in `ce-models`) can be
//!   wired together manually;
//! * [`loss`]: MSE and softmax cross-entropy with gradients;
//! * [`packed`]: [`PackedRows`](packed::PackedRows), the exact
//!   many-vs-one distance kernel that vectorises across rows — every
//!   distance keeps the bits of [`matrix::euclidean`], which stays the
//!   one-pair primitive and the kernel's oracle — and
//!   [`slack`](packed::slack), the float-error slack of every bound over
//!   those distances;
//! * [`mod@kmeans`]: k-means (the row-clustering step of DeepDB's SPN
//!   learner and the partitioner of the KNN index), its scans on
//!   [`packed`], its later Lloyd iterations bounded and exact;
//! * [`index`]: f16/i8 quantization and one-pair SIMD distance kernels
//!   over the quantized forms; no production path calls them (the
//!   end-to-end benchmark's trace times them).
//!
//! Everything is deterministic given a seeded `StdRng`.

pub mod index;
pub mod kmeans;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod packed;
#[cfg(test)]
pub(crate) mod test_values;

pub use kmeans::kmeans;
pub use layers::{Activation, Dense, DenseGrad};
pub use loss::{mse_loss, softmax_cross_entropy};
pub use matrix::Matrix;
pub use mlp::Mlp;
