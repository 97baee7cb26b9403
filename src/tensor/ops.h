// Numeric kernels over Tensor / raw float spans. Each kernel comes in a
// scalar and a vectorized variant; the vectorized variants are written so
// the compiler auto-vectorizes them (manual 8-lane unrolling, no aliasing),
// standing in for the paper's AVX execution path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace deeplens {
namespace ops {

// --- Elementwise -------------------------------------------------------

/// out[i] = a[i] + b[i].
void AddScalarKernel(const float* a, const float* b, float* out, size_t n);
void AddVectorKernel(const float* a, const float* b, float* out, size_t n);

/// out[i] = a[i] * b[i].
void MulScalarKernel(const float* a, const float* b, float* out, size_t n);
void MulVectorKernel(const float* a, const float* b, float* out, size_t n);

/// In-place max(x, 0).
void ReluScalarKernel(float* x, size_t n);
void ReluVectorKernel(float* x, size_t n);

/// out[i] = a[i] * scale + bias.
void ScaleBiasScalarKernel(const float* a, float scale, float bias,
                           float* out, size_t n);
void ScaleBiasVectorKernel(const float* a, float scale, float bias,
                           float* out, size_t n);

// --- Reductions --------------------------------------------------------

float SumScalar(const float* a, size_t n);
float SumVector(const float* a, size_t n);
float DotScalar(const float* a, const float* b, size_t n);
float DotVector(const float* a, const float* b, size_t n);
float MaxScalar(const float* a, size_t n);

// --- Distances (used by Ball-Tree / similarity joins) ------------------

/// Squared Euclidean distance.
float L2SquaredScalar(const float* a, const float* b, size_t n);
float L2SquaredVector(const float* a, const float* b, size_t n);
/// L1 (Manhattan) distance.
float L1Scalar(const float* a, const float* b, size_t n);
/// Cosine similarity in [-1, 1]; returns 0 for zero vectors.
float CosineSimilarity(const float* a, const float* b, size_t n);

// --- Matmul ------------------------------------------------------------

/// C(m×n) = A(m×k) · B(k×n), all row-major. Scalar triple loop.
void MatmulScalar(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n);
/// Cache-blocked, unrolled variant (the "AVX" path), with a row-interleaved
/// GEMV for n == 1. Bit-identical to MatmulScalar: every output element
/// sums its k products in order from 0.0f.
void MatmulVector(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n);

// --- Tensor-level conveniences -----------------------------------------

Result<Tensor> Add(const Tensor& a, const Tensor& b);
Result<Tensor> Mul(const Tensor& a, const Tensor& b);
Tensor Relu(const Tensor& a);
Result<Tensor> Matmul(const Tensor& a, const Tensor& b);
float L2Distance(const Tensor& a, const Tensor& b);

/// Softmax over the last axis of a rank-1 or rank-2 tensor.
Tensor Softmax(const Tensor& a);

/// Index of the maximum element of a rank-1 tensor (-1 if empty).
int64_t Argmax(const Tensor& a);

}  // namespace ops
}  // namespace deeplens
