#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace deeplens {
namespace ops {

// The *VectorKernel variants use 8-lane manual unrolling with restrict-
// qualified pointers so GCC/Clang emit SIMD. They stand in for the paper's
// hand-written AVX kernels.

void AddScalarKernel(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void AddVectorKernel(const float* a, const float* b, float* out, size_t n) {
  const float* __restrict__ pa = a;
  const float* __restrict__ pb = b;
  float* __restrict__ po = out;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    po[i + 0] = pa[i + 0] + pb[i + 0];
    po[i + 1] = pa[i + 1] + pb[i + 1];
    po[i + 2] = pa[i + 2] + pb[i + 2];
    po[i + 3] = pa[i + 3] + pb[i + 3];
    po[i + 4] = pa[i + 4] + pb[i + 4];
    po[i + 5] = pa[i + 5] + pb[i + 5];
    po[i + 6] = pa[i + 6] + pb[i + 6];
    po[i + 7] = pa[i + 7] + pb[i + 7];
  }
  for (; i < n; ++i) po[i] = pa[i] + pb[i];
}

void MulScalarKernel(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void MulVectorKernel(const float* a, const float* b, float* out, size_t n) {
  const float* __restrict__ pa = a;
  const float* __restrict__ pb = b;
  float* __restrict__ po = out;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) po[i + k] = pa[i + k] * pb[i + k];
  }
  for (; i < n; ++i) po[i] = pa[i] * pb[i];
}

void ReluScalarKernel(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void ReluVectorKernel(float* x, size_t n) {
  float* __restrict__ px = x;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) {
      px[i + k] = px[i + k] > 0.0f ? px[i + k] : 0.0f;
    }
  }
  for (; i < n; ++i) px[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void ScaleBiasScalarKernel(const float* a, float scale, float bias,
                           float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * scale + bias;
}

void ScaleBiasVectorKernel(const float* a, float scale, float bias,
                           float* out, size_t n) {
  const float* __restrict__ pa = a;
  float* __restrict__ po = out;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) po[i + k] = pa[i + k] * scale + bias;
  }
  for (; i < n; ++i) po[i] = pa[i] * scale + bias;
}

float SumScalar(const float* a, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i];
  return s;
}

float SumVector(const float* a, size_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) acc[k] += a[i + k];
  }
  float s = 0.0f;
  for (int k = 0; k < 8; ++k) s += acc[k];
  for (; i < n; ++i) s += a[i];
  return s;
}

float DotScalar(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

float DotVector(const float* a, const float* b, size_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) acc[k] += a[i + k] * b[i + k];
  }
  float s = 0.0f;
  for (int k = 0; k < 8; ++k) s += acc[k];
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

float MaxScalar(const float* a, size_t n) {
  if (n == 0) return 0.0f;
  float m = a[0];
  for (size_t i = 1; i < n; ++i) m = std::max(m, a[i]);
  return m;
}

float L2SquaredScalar(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

float L2SquaredVector(const float* a, const float* b, size_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) {
      const float d = a[i + k] - b[i + k];
      acc[k] += d * d;
    }
  }
  float s = 0.0f;
  for (int k = 0; k < 8; ++k) s += acc[k];
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

float L1Scalar(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

float CosineSimilarity(const float* a, const float* b, size_t n) {
  const float dot = DotVector(a, b, n);
  const float na = DotVector(a, a, n);
  const float nb = DotVector(b, b, n);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

void MatmulScalar(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (size_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
      c[i * n + j] = s;
    }
  }
}

void MatmulVector(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  if (n == 1) {
    // GEMV: the axpy below would run an inner loop of length 1. Keep one
    // accumulator per row instead and interleave four rows so their
    // add chains overlap; each row still sums p = 0..k-1 in order from
    // 0.0f, exactly as MatmulScalar does.
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* __restrict__ a0 = a + i * k;
      const float* __restrict__ a1 = a0 + k;
      const float* __restrict__ a2 = a1 + k;
      const float* __restrict__ a3 = a2 + k;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float bv = b[p];
        s0 += a0[p] * bv;
        s1 += a1[p] * bv;
        s2 += a2[p] * bv;
        s3 += a3[p] * bv;
      }
      c[i] = s0;
      c[i + 1] = s1;
      c[i + 2] = s2;
      c[i + 3] = s3;
    }
    for (; i < m; ++i) {
      const float* __restrict__ arow = a + i * k;
      float s = 0.0f;
      for (size_t p = 0; p < k; ++p) s += arow[p] * b[p];
      c[i] = s;
    }
    return;
  }
  // ikj loop order keeps B row access sequential so the inner loop is a
  // vectorizable axpy; this is the classic cache-friendly ordering.
  std::memset(c, 0, m * n * sizeof(float));
  for (size_t i = 0; i < m; ++i) {
    float* __restrict__ crow = c + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      const float* __restrict__ brow = b + p * n;
      size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        for (int u = 0; u < 8; ++u) crow[j + u] += av * brow[j + u];
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

Result<Tensor> Add(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument("Add: shape mismatch " + a.ShapeString() +
                                   " vs " + b.ShapeString());
  }
  Tensor out(a.shape());
  AddVectorKernel(a.data(), b.data(), out.data(),
                  static_cast<size_t>(a.size()));
  return out;
}

Result<Tensor> Mul(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument("Mul: shape mismatch " + a.ShapeString() +
                                   " vs " + b.ShapeString());
  }
  Tensor out(a.shape());
  MulVectorKernel(a.data(), b.data(), out.data(),
                  static_cast<size_t>(a.size()));
  return out;
}

Tensor Relu(const Tensor& a) {
  Tensor out = a.Clone();
  ReluVectorKernel(out.data(), static_cast<size_t>(out.size()));
  return out;
}

Result<Tensor> Matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    return Status::InvalidArgument("Matmul: incompatible shapes " +
                                   a.ShapeString() + " x " + b.ShapeString());
  }
  Tensor out({a.dim(0), b.dim(1)});
  MatmulVector(a.data(), b.data(), out.data(),
               static_cast<size_t>(a.dim(0)), static_cast<size_t>(a.dim(1)),
               static_cast<size_t>(b.dim(1)));
  return out;
}

float L2Distance(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) return std::numeric_limits<float>::infinity();
  return std::sqrt(
      L2SquaredVector(a.data(), b.data(), static_cast<size_t>(a.size())));
}

Tensor Softmax(const Tensor& a) {
  Tensor out = a.Clone();
  const int64_t cols = a.rank() == 2 ? a.dim(1) : a.size();
  const int64_t rows = a.rank() == 2 ? a.dim(0) : 1;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * cols;
    const float mx = MaxScalar(row, static_cast<size_t>(cols));
    float denom = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    if (denom > 0.0f) {
      for (int64_t j = 0; j < cols; ++j) row[j] /= denom;
    }
  }
  return out;
}

int64_t Argmax(const Tensor& a) {
  if (a.empty()) return -1;
  int64_t best = 0;
  for (int64_t i = 1; i < a.size(); ++i) {
    if (a[i] > a[best]) best = i;
  }
  return best;
}

}  // namespace ops
}  // namespace deeplens
