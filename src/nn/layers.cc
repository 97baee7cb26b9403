#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/ops.h"

namespace deeplens {
namespace nn {

namespace {
int OutExtent(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}
}  // namespace

Tensor Im2Col(const Tensor& input_chw, int kernel, int stride, int padding) {
  const int c = static_cast<int>(input_chw.dim(0));
  const int h = static_cast<int>(input_chw.dim(1));
  const int w = static_cast<int>(input_chw.dim(2));
  const int oh = OutExtent(h, kernel, stride, padding);
  const int ow = OutExtent(w, kernel, stride, padding);
  Tensor out({static_cast<int64_t>(c) * kernel * kernel,
              static_cast<int64_t>(oh) * ow});
  // The output starts zeroed, so padding taps need no writes. Bounds are
  // settled once per output row: for tap column kx, output x reads source
  // column sx = x * stride + kx - padding, which lies in [0, w) exactly
  // for x in [x_lo, x_hi).
  float* dst = out.data();
  const float* src = input_chw.data();
  for (int ci = 0; ci < c; ++ci) {
    const float* plane = src + static_cast<size_t>(ci) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const int lead = padding - kx;  // source column of x = 0 is -lead
        const int x_lo =
            lead > 0 ? std::min(ow, (lead + stride - 1) / stride) : 0;
        const int x_hi = w + lead > 0
                             ? std::clamp((w + lead - 1) / stride + 1,
                                          x_lo, ow)
                             : x_lo;
        for (int y = 0; y < oh; ++y, dst += ow) {
          const int sy = y * stride + ky - padding;
          if (sy < 0 || sy >= h) continue;
          const float* srow = plane + static_cast<size_t>(sy) * w;
          if (stride == 1) {
            std::copy(srow + (x_lo - lead), srow + (x_hi - lead), dst + x_lo);
          } else {
            for (int x = x_lo; x < x_hi; ++x) {
              dst[x] = srow[x * stride - lead];
            }
          }
        }
      }
    }
  }
  return out;
}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weights_({out_channels,
                static_cast<int64_t>(in_channels) * kernel * kernel}),
      bias_({out_channels}) {}

void Conv2d::InitRandom(Rng* rng, float scale) {
  for (int64_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = static_cast<float>(rng->NextGaussian()) * scale;
  }
  for (int64_t i = 0; i < bias_.size(); ++i) bias_[i] = 0.0f;
}

Result<Tensor> Conv2d::Forward(const Tensor& input, Device* device) const {
  if (input.rank() != 3) {
    return Status::InvalidArgument("Conv2d expects CHW input, got " +
                                   input.ShapeString());
  }
  if (input.dim(0) != in_channels_) {
    return Status::InvalidArgument("Conv2d channel mismatch");
  }
  const int h = static_cast<int>(input.dim(1));
  const int w = static_cast<int>(input.dim(2));
  const int oh = OutExtent(h, kernel_, stride_, padding_);
  const int ow = OutExtent(w, kernel_, stride_, padding_);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("Conv2d input smaller than kernel");
  }

  const Tensor cols = Im2Col(input, kernel_, stride_, padding_);
  Tensor out({out_channels_, static_cast<int64_t>(oh) * ow});
  device->Matmul(weights_.data(), cols.data(), out.data(),
                 static_cast<size_t>(out_channels_),
                 static_cast<size_t>(weights_.dim(1)),
                 static_cast<size_t>(cols.dim(1)));
  // Add bias per output channel.
  for (int oc = 0; oc < out_channels_; ++oc) {
    const float b = bias_[oc];
    if (b != 0.0f) {
      float* row = out.data() + static_cast<size_t>(oc) * oh * ow;
      device->ScaleBias(row, 1.0f, b, row, static_cast<size_t>(oh) * ow);
    }
  }
  return out.Reshape({out_channels_, oh, ow});
}

Result<Tensor> ReluLayer::Forward(const Tensor& input,
                                  Device* device) const {
  Tensor out = input.Clone();
  device->Relu(out.data(), static_cast<size_t>(out.size()));
  return out;
}

Result<Tensor> MaxPool2d::Forward(const Tensor& input,
                                  Device* /*device*/) const {
  if (input.rank() != 3) {
    return Status::InvalidArgument("MaxPool2d expects CHW input");
  }
  const int c = static_cast<int>(input.dim(0));
  const int h = static_cast<int>(input.dim(1));
  const int w = static_cast<int>(input.dim(2));
  const int oh = OutExtent(h, kernel_, stride_, 0);
  const int ow = OutExtent(w, kernel_, stride_, 0);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("MaxPool2d input smaller than kernel");
  }
  Tensor out({c, oh, ow});
  // Every window lies inside the input: the last one ends at
  // (oh - 1) * stride + kernel <= h (likewise for x).
  const float* src = input.data();
  float* dst = out.data();
  for (int ci = 0; ci < c; ++ci) {
    const float* plane = src + static_cast<size_t>(ci) * h * w;
    for (int y = 0; y < oh; ++y) {
      const float* band = plane + static_cast<size_t>(y) * stride_ * w;
      for (int x = 0; x < ow; ++x) {
        float m = -std::numeric_limits<float>::max();
        for (int ky = 0; ky < kernel_; ++ky) {
          const float* row = band + static_cast<size_t>(ky) * w +
                             static_cast<size_t>(x) * stride_;
          for (int kx = 0; kx < kernel_; ++kx) m = std::max(m, row[kx]);
        }
        *dst++ = m;
      }
    }
  }
  return out;
}

Result<Tensor> AvgPool2d::Forward(const Tensor& input,
                                  Device* /*device*/) const {
  if (input.rank() != 3) {
    return Status::InvalidArgument("AvgPool2d expects CHW input");
  }
  const int c = static_cast<int>(input.dim(0));
  const int h = static_cast<int>(input.dim(1));
  const int w = static_cast<int>(input.dim(2));
  const int oh = OutExtent(h, kernel_, stride_, 0);
  const int ow = OutExtent(w, kernel_, stride_, 0);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("AvgPool2d input smaller than kernel");
  }
  Tensor out({c, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  // Windows lie inside the input, as in MaxPool2d; each sums its taps
  // row by row from 0.0f.
  const float* src = input.data();
  float* dst = out.data();
  for (int ci = 0; ci < c; ++ci) {
    const float* plane = src + static_cast<size_t>(ci) * h * w;
    for (int y = 0; y < oh; ++y) {
      const float* band = plane + static_cast<size_t>(y) * stride_ * w;
      for (int x = 0; x < ow; ++x) {
        float s = 0.0f;
        for (int ky = 0; ky < kernel_; ++ky) {
          const float* row = band + static_cast<size_t>(ky) * w +
                             static_cast<size_t>(x) * stride_;
          for (int kx = 0; kx < kernel_; ++kx) s += row[kx];
        }
        *dst++ = s * inv;
      }
    }
  }
  return out;
}

Linear::Linear(int in_features, int out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weights_({out_features, in_features}),
      bias_({out_features}) {}

void Linear::InitRandom(Rng* rng, float scale) {
  for (int64_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = static_cast<float>(rng->NextGaussian()) * scale;
  }
  for (int64_t i = 0; i < bias_.size(); ++i) bias_[i] = 0.0f;
}

Result<Tensor> Linear::Forward(const Tensor& input, Device* device) const {
  if (input.size() != in_features_) {
    return Status::InvalidArgument(
        "Linear input size mismatch: " + input.ShapeString());
  }
  Tensor out({out_features_});
  device->Matmul(weights_.data(), input.data(), out.data(),
                 static_cast<size_t>(out_features_),
                 static_cast<size_t>(in_features_), 1);
  device->Add(out.data(), bias_.data(), out.data(),
              static_cast<size_t>(out_features_));
  return out;
}

Result<Tensor> SoftmaxLayer::Forward(const Tensor& input,
                                     Device* /*device*/) const {
  DL_ASSIGN_OR_RETURN(Tensor flat, input.Reshape({input.size()}));
  return ops::Softmax(flat);
}

Result<Tensor> FlattenLayer::Forward(const Tensor& input,
                                     Device* /*device*/) const {
  return input.Reshape({input.size()});
}

}  // namespace nn
}  // namespace deeplens
