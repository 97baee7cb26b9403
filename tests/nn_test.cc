// Unit tests for nn/: devices (including the simulated GPU's overhead
// accounting), layers (hand-computed convolutions, im2col), networks, and
// the three model instantiations against synthetic scenes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/thread_pool.h"
#include "exec/scheduler.h"
#include "nn/device.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/network.h"
#include "sim/scene.h"

namespace deeplens {
namespace nn {
namespace {

class DeviceEquivalence : public ::testing::TestWithParam<DeviceKind> {};

// The bit pattern of a float, so kernel outputs compare exactly (EXPECT_EQ
// on floats would equate -0.0f with 0.0f).
uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

TEST_P(DeviceEquivalence, MatmulMatchesScalarReference) {
  // Every device sums each output's products in order from 0.0f, so the
  // results are bit-identical, not just close. Shapes cover the GEMV path
  // (n == 1: OCR's classifier, a 1-row head) and the detector's convs.
  Device* device = GetDevice(GetParam());
  Device* reference = GetDevice(DeviceKind::kCpuScalar);
  const size_t shapes[][3] = {{7, 11, 5},     {10, 64, 1},   {1, 5, 1},
                              {8, 27, 4096},  {8, 72, 4096}, {9, 3, 2}};
  Rng rng(3);
  for (const auto& shape : shapes) {
    const size_t m = shape[0], k = shape[1], n = shape[2];
    std::vector<float> a(m * k), b(k * n);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    std::vector<float> c_dev(m * n), c_ref(m * n);
    device->Matmul(a.data(), b.data(), c_dev.data(), m, k, n);
    reference->Matmul(a.data(), b.data(), c_ref.data(), m, k, n);
    size_t mismatches = 0;
    for (size_t i = 0; i < m * n; ++i) {
      mismatches += Bits(c_dev[i]) != Bits(c_ref[i]);
    }
    EXPECT_EQ(mismatches, 0u) << m << "x" << k << "x" << n;
  }
}

TEST_P(DeviceEquivalence, PairwiseL2MatchesScalarReference) {
  Device* device = GetDevice(GetParam());
  Device* reference = GetDevice(DeviceKind::kCpuScalar);
  const size_t na = 9, nb = 6, dim = 17;
  Rng rng(4);
  std::vector<float> a(na * dim), b(nb * dim);
  for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
  for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
  std::vector<float> d_dev(na * nb), d_ref(na * nb);
  device->PairwiseL2Squared(a.data(), na, b.data(), nb, dim, d_dev.data());
  reference->PairwiseL2Squared(a.data(), na, b.data(), nb, dim,
                               d_ref.data());
  for (size_t i = 0; i < na * nb; ++i) {
    EXPECT_NEAR(d_dev[i], d_ref[i], 1e-3f);
  }
}

TEST_P(DeviceEquivalence, ParallelMapCoversAllIndices) {
  Device* device = GetDevice(GetParam());
  std::vector<std::atomic<int>> hits(128);
  device->ParallelMap(
      128, [&](size_t i) { hits[i]++; }, 1024);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceEquivalence,
                         ::testing::Values(DeviceKind::kCpuScalar,
                                           DeviceKind::kCpuVector,
                                           DeviceKind::kGpuSim));

TEST(GpuSimTest, ChargesOverhead) {
  ConfigureGpuSim(GpuSimOptions{});
  Device* gpu = GetDevice(DeviceKind::kGpuSim);
  const uint64_t before = gpu->simulated_overhead_nanos();
  std::vector<float> x(64, -1.0f);
  gpu->Relu(x.data(), x.size());
  EXPECT_GT(gpu->simulated_overhead_nanos(), before);
  for (float v : x) EXPECT_EQ(v, 0.0f);
}

TEST(GpuSimTest, CpuDevicesHaveNoOverhead) {
  EXPECT_EQ(GetDevice(DeviceKind::kCpuScalar)->simulated_overhead_nanos(),
            0u);
  EXPECT_EQ(GetDevice(DeviceKind::kCpuVector)->simulated_overhead_nanos(),
            0u);
}

TEST(DeviceTest, Names) {
  EXPECT_STREQ(GetDevice(DeviceKind::kCpuScalar)->name(), "cpu");
  EXPECT_STREQ(GetDevice(DeviceKind::kCpuVector)->name(), "avx");
  EXPECT_STREQ(GetDevice(DeviceKind::kGpuSim)->name(), "gpu");
}

TEST(Im2ColTest, UnrollsReceptiveFields) {
  // 1×3×3 input, 2×2 kernel, stride 1, no padding → 4 columns of 4 taps.
  Tensor input({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols = Im2Col(input, 2, 1, 0);
  ASSERT_EQ(cols.dim(0), 4);
  ASSERT_EQ(cols.dim(1), 4);
  // First output position sees taps {1,2,4,5} (one per kernel slot row).
  EXPECT_FLOAT_EQ(cols.At(0, 0), 1);
  EXPECT_FLOAT_EQ(cols.At(1, 0), 2);
  EXPECT_FLOAT_EQ(cols.At(2, 0), 4);
  EXPECT_FLOAT_EQ(cols.At(3, 0), 5);
  // Last position sees {5,6,8,9}.
  EXPECT_FLOAT_EQ(cols.At(0, 3), 5);
  EXPECT_FLOAT_EQ(cols.At(3, 3), 9);
}

TEST(Im2ColTest, PaddingContributesZeros) {
  Tensor input({1, 1, 1}, {7});
  Tensor cols = Im2Col(input, 3, 1, 1);
  ASSERT_EQ(cols.dim(0), 9);
  ASSERT_EQ(cols.dim(1), 1);
  float sum = 0;
  for (int i = 0; i < 9; ++i) sum += cols.At(i, 0);
  EXPECT_FLOAT_EQ(sum, 7.0f);  // only the center tap is non-zero
}

Tensor RandomChw(int c, int h, int w, Rng* rng) {
  Tensor t({c, h, w});
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian());
  }
  return t;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  size_t mismatches = 0;
  for (int64_t i = 0; i < got.size(); ++i) {
    mismatches += Bits(got[i]) != Bits(want[i]);
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

// Naive per-element im2col: the bounds test sits on every tap.
Tensor ReferenceIm2Col(const Tensor& in, int k, int stride, int pad) {
  const int c = static_cast<int>(in.dim(0));
  const int h = static_cast<int>(in.dim(1));
  const int w = static_cast<int>(in.dim(2));
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (w + 2 * pad - k) / stride + 1;
  Tensor out({static_cast<int64_t>(c) * k * k,
              static_cast<int64_t>(oh) * ow});
  for (int ci = 0; ci < c; ++ci) {
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        for (int y = 0; y < oh; ++y) {
          for (int x = 0; x < ow; ++x) {
            const int sy = y * stride + ky - pad;
            const int sx = x * stride + kx - pad;
            const bool inside = sy >= 0 && sy < h && sx >= 0 && sx < w;
            out.At((ci * k + ky) * k + kx, y * ow + x) =
                inside ? in.At(ci, sy, sx) : 0.0f;
          }
        }
      }
    }
  }
  return out;
}

// Naive pooling; `avg` sums each window row by row from 0.0f.
Tensor ReferencePool(const Tensor& in, int k, int stride, bool avg) {
  const int c = static_cast<int>(in.dim(0));
  const int h = static_cast<int>(in.dim(1));
  const int w = static_cast<int>(in.dim(2));
  const int oh = (h - k) / stride + 1;
  const int ow = (w - k) / stride + 1;
  Tensor out({c, oh, ow});
  const float inv = 1.0f / static_cast<float>(k * k);
  for (int ci = 0; ci < c; ++ci) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        float acc = avg ? 0.0f : -std::numeric_limits<float>::max();
        for (int ky = 0; ky < k; ++ky) {
          for (int kx = 0; kx < k; ++kx) {
            const float v = in.At(ci, y * stride + ky, x * stride + kx);
            acc = avg ? acc + v : std::max(acc, v);
          }
        }
        out.At(ci, y, x) = avg ? acc * inv : acc;
      }
    }
  }
  return out;
}

TEST(Im2ColTest, MatchesNaiveReferenceBitwise) {
  Rng rng(21);
  // Non-square inputs, including ones narrower than the padded kernel's
  // reach and a 1-pixel-wide strip.
  const int dims[][3] = {{3, 13, 17}, {2, 9, 6}, {1, 5, 11}, {2, 7, 1}};
  for (const auto& d : dims) {
    const Tensor in = RandomChw(d[0], d[1], d[2], &rng);
    for (int stride : {1, 2}) {
      for (int pad : {0, 1, 2}) {
        for (int k : {1, 3, 5}) {
          if (d[1] + 2 * pad < k || d[2] + 2 * pad < k) continue;
          const std::string what = in.ShapeString() + " k" +
                                   std::to_string(k) + " s" +
                                   std::to_string(stride) + " p" +
                                   std::to_string(pad);
          ExpectBitEqual(Im2Col(in, k, stride, pad),
                         ReferenceIm2Col(in, k, stride, pad), what);
        }
      }
    }
  }
}

TEST(PoolTest, MatchesNaiveReferenceBitwise) {
  Rng rng(22);
  const int dims[][3] = {{3, 13, 17}, {2, 8, 5}, {1, 16, 16}, {4, 5, 9}};
  Device* device = GetDevice(DeviceKind::kCpuVector);
  for (const auto& d : dims) {
    const Tensor in = RandomChw(d[0], d[1], d[2], &rng);
    for (int stride : {1, 2}) {
      for (int k : {1, 2, 3, 5}) {
        if (d[1] < k || d[2] < k) continue;
        const std::string what = in.ShapeString() + " k" + std::to_string(k) +
                                 " s" + std::to_string(stride);
        auto avg = AvgPool2d(k, stride).Forward(in, device);
        auto max = MaxPool2d(k, stride).Forward(in, device);
        ASSERT_TRUE(avg.ok() && max.ok()) << what;
        ExpectBitEqual(*avg, ReferencePool(in, k, stride, true), "avg " + what);
        ExpectBitEqual(*max, ReferencePool(in, k, stride, false),
                       "max " + what);
      }
    }
  }
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  Conv2d conv(1, 1, 3, 1, 1);
  conv.weights().At(0, 4) = 1.0f;  // center tap
  Tensor input({1, 4, 4});
  for (int i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  auto out = conv.Forward(input, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->AllClose(input, 1e-4f));
}

TEST(Conv2dTest, HandComputedConvolution) {
  // 2×2 all-ones kernel over a 2×2 input without padding = sum + bias.
  Conv2d conv(1, 1, 2, 1, 0);
  for (int i = 0; i < 4; ++i) conv.weights().At(0, i) = 1.0f;
  conv.bias()[0] = 0.5f;
  Tensor input({1, 2, 2}, {1, 2, 3, 4});
  auto out = conv.Forward(input, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1);
  EXPECT_FLOAT_EQ((*out)[0], 10.5f);
}

TEST(Conv2dTest, StrideDownsamples) {
  Conv2d conv(1, 1, 2, 2, 0);
  for (int i = 0; i < 4; ++i) conv.weights().At(0, i) = 0.25f;
  Tensor input({1, 4, 4});
  auto out = conv.Forward(input, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->dim(1), 2);
  EXPECT_EQ(out->dim(2), 2);
}

TEST(Conv2dTest, RejectsBadInput) {
  Conv2d conv(3, 4, 3, 1, 1);
  EXPECT_FALSE(
      conv.Forward(Tensor({2, 8, 8}), GetDevice(DeviceKind::kCpuVector))
          .ok());
  EXPECT_FALSE(
      conv.Forward(Tensor({8}), GetDevice(DeviceKind::kCpuVector)).ok());
}

TEST(PoolTest, MaxPoolTakesMaxima) {
  MaxPool2d pool(2);
  Tensor input({1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  auto out = pool.Forward(input, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->At(0, 0, 0), 5);
  EXPECT_FLOAT_EQ(out->At(0, 0, 1), 8);
}

TEST(PoolTest, AvgPoolAverages) {
  AvgPool2d pool(2);
  Tensor input({1, 2, 2}, {1, 2, 3, 4});
  auto out = pool.Forward(input, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ((*out)[0], 2.5f);
}

TEST(LinearTest, ComputesAffine) {
  Linear fc(2, 2);
  fc.weights().At(0, 0) = 1;
  fc.weights().At(0, 1) = 2;
  fc.weights().At(1, 0) = -1;
  fc.weights().At(1, 1) = 0;
  fc.bias()[0] = 0.5f;
  Tensor input = Tensor::FromVector({3, 4});
  auto out = fc.Forward(input, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ((*out)[0], 11.5f);
  EXPECT_FLOAT_EQ((*out)[1], -3.0f);
}

TEST(NetworkTest, SequentialForwardAndSummary) {
  Network net("test");
  net.Add<Linear>(4, 8);
  net.Add<ReluLayer>();
  net.Add<Linear>(8, 2);
  net.Add<SoftmaxLayer>();
  EXPECT_EQ(net.num_layers(), 4u);
  EXPECT_EQ(net.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
  auto out = net.Forward(Tensor({4}), GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2);
  EXPECT_NE(net.Summary().find("linear"), std::string::npos);
}

class BatchDevices : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(BatchDevices, ForwardBatchMatchesSingle) {
  Network net("batch");
  auto* fc = net.Add<Linear>(3, 2);
  Rng rng(8);
  fc->InitRandom(&rng, 0.5f);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(Tensor::FromVector(
        {static_cast<float>(i), 1.0f, -static_cast<float>(i)}));
  }
  Device* device = GetDevice(GetParam());
  auto batch = ForwardBatch(net, inputs, device);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    auto single = net.Forward(inputs[i], GetDevice(DeviceKind::kCpuVector));
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE((*batch)[i].AllClose(*single, 1e-4f));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, BatchDevices,
                         ::testing::Values(DeviceKind::kCpuScalar,
                                           DeviceKind::kCpuVector,
                                           DeviceKind::kGpuSim));

// A failing item surfaces its own Status on every backend, the simulated
// GPU included.
class BatchErrorDevices : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(BatchErrorDevices, ForwardBatchReturnsTheItemsStatus) {
  Network net("conv");
  net.Add<Conv2d>(3, 2, 3, 1, 1);
  const std::vector<Tensor> inputs = {Tensor({3, 8, 8}), Tensor({2, 8, 8})};
  auto batch = ForwardBatch(net, inputs, GetDevice(GetParam()));
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsInvalidArgument())
      << batch.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(CpuAndGpu, BatchErrorDevices,
                         ::testing::Values(DeviceKind::kCpuVector,
                                           DeviceKind::kGpuSim));

// --- Models over synthetic scenes ------------------------------------------

sim::SceneObject MakeObject(ObjectClass cls, int x0, int y0, int w, int h,
                            int id = 1) {
  sim::SceneObject obj;
  obj.cls = cls;
  obj.bbox = BBox{x0, y0, x0 + w, y0 + h};
  obj.object_id = id;
  obj.depth = 20.0f;
  return obj;
}

TEST(TinySsdTest, DetectsEachClass) {
  Device* device = GetDevice(DeviceKind::kCpuVector);
  TinySsdDetector detector;
  struct Case {
    ObjectClass cls;
    sim::Background bg;
  };
  for (const auto& c : {Case{ObjectClass::kCar, sim::Background::kAsphalt},
                        Case{ObjectClass::kPerson, sim::Background::kAsphalt},
                        Case{ObjectClass::kPlayer, sim::Background::kField}}) {
    std::vector<sim::SceneObject> objects = {
        MakeObject(c.cls, 40, 30, 20, 14)};
    Image frame = sim::RenderScene(128, 72, c.bg, objects, 7);
    auto dets = detector.Detect(frame, device);
    ASSERT_TRUE(dets.ok());
    bool found = false;
    for (const auto& d : *dets) {
      if (d.label == c.cls && d.bbox.Iou(objects[0].bbox) >= 0.3f) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "class " << ObjectClassName(c.cls);
  }
}

TEST(TinySsdTest, EmptySceneYieldsNoDetections) {
  Device* device = GetDevice(DeviceKind::kCpuVector);
  TinySsdDetector detector;
  Image frame = sim::RenderScene(128, 72, sim::Background::kAsphalt, {}, 9);
  auto dets = detector.Detect(frame, device);
  ASSERT_TRUE(dets.ok());
  EXPECT_TRUE(dets->empty());
}

TEST(TinySsdTest, RefinedBoxesAreTight) {
  Device* device = GetDevice(DeviceKind::kCpuVector);
  TinySsdDetector detector;
  std::vector<sim::SceneObject> objects = {
      MakeObject(ObjectClass::kCar, 50, 40, 16, 7)};
  Image frame =
      sim::RenderScene(128, 72, sim::Background::kAsphalt, objects, 11);
  auto dets = detector.Detect(frame, device);
  ASSERT_TRUE(dets.ok());
  ASSERT_FALSE(dets->empty());
  // Refinement should recover the object box closely (IoU >= 0.7, far
  // better than raw grid-cell quantization).
  float best = 0;
  for (const auto& d : *dets) {
    best = std::max(best, d.bbox.Iou(objects[0].bbox));
  }
  EXPECT_GE(best, 0.7f);
}

TEST(TinySsdTest, RejectsNonRgb) {
  TinySsdDetector detector;
  EXPECT_FALSE(
      detector.Detect(Image(8, 8, 1), GetDevice(DeviceKind::kCpuVector))
          .ok());
  EXPECT_FALSE(
      detector.Detect(Image(), GetDevice(DeviceKind::kCpuVector)).ok());
}

TEST(TinySsdTest, BatchMatchesSingleFrame) {
  Device* device = GetDevice(DeviceKind::kCpuVector);
  TinySsdDetector detector;
  std::vector<Image> frames;
  for (int i = 0; i < 4; ++i) {
    std::vector<sim::SceneObject> objects = {
        MakeObject(ObjectClass::kCar, 20 + 10 * i, 40, 16, 7)};
    frames.push_back(
        sim::RenderScene(128, 72, sim::Background::kAsphalt, objects,
                         100 + static_cast<uint64_t>(i)));
  }
  auto batch = detector.DetectBatch(frames, device);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < frames.size(); ++i) {
    auto single = detector.Detect(frames[i], device);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*batch)[i].size(), single->size());
    for (size_t j = 0; j < single->size(); ++j) {
      EXPECT_EQ((*batch)[i][j].bbox.x0, (*single)[j].bbox.x0);
      EXPECT_EQ((*batch)[i][j].label, (*single)[j].label);
    }
  }
}

class OcrDigits : public ::testing::TestWithParam<int> {};

TEST_P(OcrDigits, RecognizesRenderedDigit) {
  const int digit = GetParam();
  TinyOcr ocr;
  // Render the digit at a generous scale on a dark panel.
  Image panel(30, 30, 3);
  for (auto& b : panel.bytes()) b = 25;
  sim::DrawDigits(&panel, BBox{0, 0, 30, 30}, std::to_string(digit));
  auto got = ocr.RecognizeText(panel, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::to_string(digit));
}

INSTANTIATE_TEST_SUITE_P(AllDigits, OcrDigits, ::testing::Range(0, 10));

TEST(TinyOcrTest, RecognizesMultiDigitString) {
  TinyOcr ocr;
  Image panel(90, 24, 3);
  for (auto& b : panel.bytes()) b = 25;
  sim::DrawDigits(&panel, BBox{2, 2, 88, 22}, "90817");
  auto got = ocr.RecognizeText(panel, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "90817");
}

TEST(TinyOcrTest, EmptyPanelYieldsEmptyString) {
  TinyOcr ocr;
  Image panel(20, 20, 3);
  for (auto& b : panel.bytes()) b = 25;
  auto got = ocr.RecognizeText(panel, GetDevice(DeviceKind::kCpuVector));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(TinyOcrTest, InklessGlyphRejected) {
  TinyOcr ocr;
  // No ink at all -> uniform posterior -> below the confidence floor.
  Image glyph(10, 14, 3);
  for (auto& b : glyph.bytes()) b = 60;
  auto digit =
      ocr.RecognizeDigit(glyph, GetDevice(DeviceKind::kCpuVector));
  EXPECT_TRUE(digit.status().IsNotFound());
}

// Paints `digit`'s 5×7 glyph at (x0, y0), each font pixel as an sx × sy
// block whose channels take `value` (one entry per channel).
void PaintGlyph(Image* img, int digit, int x0, int y0, int sx, int sy,
                const std::vector<uint8_t>& value) {
  for (int gy = 0; gy < kGlyphHeight; ++gy) {
    for (int gx = 0; gx < kGlyphWidth; ++gx) {
      if (!GlyphPixel(digit, gx, gy)) continue;
      for (int y = y0 + gy * sy; y < y0 + (gy + 1) * sy; ++y) {
        for (int x = x0 + gx * sx; x < x0 + (gx + 1) * sx; ++x) {
          for (int c = 0; c < img->channels(); ++c) {
            img->At(x, y, c) = value[static_cast<size_t>(c)];
          }
        }
      }
    }
  }
}

Image NoisePanel(int w, int h, int channels, int lo, int span, Rng* rng) {
  Image img(w, h, channels);
  for (auto& b : img.bytes()) {
    b = static_cast<uint8_t>(lo + static_cast<int>(rng->NextU64Below(
                                      static_cast<uint64_t>(span))));
  }
  return img;
}

// A seeded corpus covering every branch of the ink test and the glyph
// sampler: udf_mix-style 48×48 panels with and without digits, 1-, 3- and
// 4-channel patches, glyphs narrower and wider than the font's 5:7
// aspect, ink exactly at (and one below) the threshold, near-threshold
// noise, and an empty patch.
std::vector<Image> OcrCorpus() {
  Rng rng(2025);
  std::vector<Image> corpus;
  for (int i = 0; i < 48; ++i) {
    Image panel = NoisePanel(48, 48, 3, 10, 20, &rng);
    if (i % 3 != 0) {
      sim::DrawDigits(&panel, BBox{4, 14, 44, 34},
                      std::to_string(10 + rng.NextU64Below(90)));
    }
    corpus.push_back(std::move(panel));
  }
  for (int channels : {1, 3, 4}) {
    for (int i = 0; i < 12; ++i) {
      const int w = 20 + static_cast<int>(rng.NextU64Below(40));
      const int h = 16 + static_cast<int>(rng.NextU64Below(24));
      Image patch = NoisePanel(w, h, channels, 10, 50, &rng);
      if (i % 4 != 0) {
        sim::DrawDigits(&patch, BBox{1, 1, w - 1, h - 1},
                        std::to_string(rng.NextU64Below(1000)));
      }
      corpus.push_back(std::move(patch));
    }
  }
  // Channel values whose integer mean is exactly the threshold (200),
  // then sums one below it.
  const std::vector<std::vector<uint8_t>> inks = {
      {200}, {180, 200, 220}, {200, 190, 210, 200},
      {199}, {199, 200, 200}, {199, 200, 200, 200}};
  for (const auto& ink : inks) {
    const int channels = static_cast<int>(ink.size());
    for (int digit : {3, 7}) {
      Image patch = NoisePanel(24, 24, channels, 10, 20, &rng);
      PaintGlyph(&patch, digit, 4, 2, 3, 3, ink);
      corpus.push_back(std::move(patch));
    }
  }
  // Glyphs stretched narrower/taller and wider/shorter than 5:7.
  const int scales[][2] = {{1, 4}, {2, 6}, {1, 3}, {4, 1}, {6, 2}, {3, 1}};
  for (const auto& sc : scales) {
    for (int digit = 0; digit < 10; digit += 3) {
      Image patch = NoisePanel(40, 48, 3, 10, 20, &rng);
      PaintGlyph(&patch, digit, 2, 2, sc[0], sc[1], {240, 240, 240});
      PaintGlyph(&patch, (digit + 1) % 10, 4 + 5 * sc[0], 2, sc[0], sc[1],
                 {240, 240, 240});
      corpus.push_back(std::move(patch));
    }
  }
  // Backgrounds straddling the threshold.
  for (int i = 0; i < 8; ++i) {
    corpus.push_back(NoisePanel(32, 32, 1 + i % 4, 195, 11, &rng));
  }
  corpus.push_back(Image());
  return corpus;
}

TEST(TinyOcrTest, OutputsArePinned) {
  // RecognizeText, RecognizeDigit and ProxyHasInk over OcrCorpus(),
  // digested. The digest was computed with the per-pixel-divide ink test
  // and the crop/pad/resize glyph path that the current kernels replace,
  // so it pins their outputs to the originals exactly.
  constexpr uint64_t kPinnedDigest = 0x56dd8c7ff5e34512ull;
  TinyOcr ocr;
  Device* vec = GetDevice(DeviceKind::kCpuVector);
  Device* scalar = GetDevice(DeviceKind::kCpuScalar);
  uint64_t digest = 1469598103934665603ull;  // FNV-1a
  auto mix = [&](const std::string& bytes) {
    for (unsigned char ch : bytes) {
      digest ^= ch;
      digest *= 1099511628211ull;
    }
  };
  int read = 0;
  const std::vector<Image> corpus = OcrCorpus();
  for (const Image& patch : corpus) {
    auto text = ocr.RecognizeText(patch, vec);
    ASSERT_TRUE(text.ok());
    auto scalar_text = ocr.RecognizeText(patch, scalar);
    ASSERT_TRUE(scalar_text.ok());
    EXPECT_EQ(*text, *scalar_text);
    read += !text->empty();
    int digit = -1;
    if (!patch.empty()) {
      auto d = ocr.RecognizeDigit(patch, vec);
      digit = d.ok() ? *d : -1;
    }
    mix(*text + "|" + std::to_string(ocr.ProxyHasInk(patch)) + "|" +
        std::to_string(digit) + ";");
  }
  EXPECT_GT(read, static_cast<int>(corpus.size()) / 3);
  EXPECT_EQ(digest, kPinnedDigest)
      << "0x" << std::hex << digest << " over " << std::dec << corpus.size()
      << " patches";
}

TEST(TinyOcrTest, InkThresholdIsInclusive) {
  // Mean channel value exactly 200 is ink; a channel sum one below is not.
  TinyOcr ocr;
  Device* device = GetDevice(DeviceKind::kCpuVector);
  for (const std::vector<uint8_t>& ink :
       {std::vector<uint8_t>{200}, std::vector<uint8_t>{180, 200, 220},
        std::vector<uint8_t>{200, 190, 210, 200}}) {
    Image patch(24, 24, static_cast<int>(ink.size()));
    PaintGlyph(&patch, 4, 4, 2, 3, 3, ink);
    EXPECT_TRUE(ocr.ProxyHasInk(patch));
    auto text = ocr.RecognizeText(patch, device);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, "4") << ink.size() << " channels";

    std::vector<uint8_t> below = ink;
    below[0] = static_cast<uint8_t>(below[0] - 1);
    Image faint(24, 24, static_cast<int>(ink.size()));
    PaintGlyph(&faint, 4, 4, 2, 3, 3, below);
    EXPECT_FALSE(ocr.ProxyHasInk(faint));
    text = ocr.RecognizeText(faint, device);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, "") << ink.size() << " channels";
  }
}

TEST(TinyDepthTest, RecoversDepthFromApparentHeight) {
  TinyDepth model(kFocalTimesHeight);
  Device* device = GetDevice(DeviceKind::kCpuVector);
  for (float depth : {13.0f, 18.0f, 25.0f}) {
    const int h = static_cast<int>(kFocalTimesHeight / depth);
    sim::SceneObject ped =
        MakeObject(ObjectClass::kPerson, 50, 4, std::max(3, h / 3), h);
    ped.depth = depth;
    Image frame = sim::RenderScene(128, 72, sim::Background::kAsphalt,
                                   {ped}, 13);
    Image crop =
        frame.Crop(ped.bbox.x0, ped.bbox.y0, ped.bbox.x1, ped.bbox.y1);
    auto predicted = model.PredictDepth(crop, ped.bbox, 72, device);
    ASSERT_TRUE(predicted.ok());
    EXPECT_NEAR(*predicted, depth, depth * 0.15f) << "depth " << depth;
  }
}

TEST(TinyDepthTest, RejectsDegenerateInput) {
  TinyDepth model(kFocalTimesHeight);
  EXPECT_FALSE(model
                   .PredictDepth(Image(), BBox{0, 0, 4, 4}, 72,
                                 GetDevice(DeviceKind::kCpuVector))
                   .ok());
  EXPECT_FALSE(model
                   .PredictDepth(Image(4, 4, 3), BBox{0, 0, 4, 0}, 72,
                                 GetDevice(DeviceKind::kCpuVector))
                   .ok());
}

// --- Batched entry points on the morsel pool ------------------------------
// Every batched entry point fans its items out through the morsel
// scheduler. Batches of 4x the pool width must equal the per-item calls
// field by field, and the scheduler must have run one task per item for
// the calling tenant.

class PooledBatchTest : public ::testing::Test {
 protected:
  static size_t BatchSize() { return 4 * ThreadPool::Global().num_threads(); }

  static uint64_t TenantTasks(const std::string& tenant) {
    const SchedulerStats stats = MorselScheduler::Global().Stats();
    auto it = stats.tasks_by_tenant.find(tenant);
    return it == stats.tasks_by_tenant.end() ? 0 : it->second;
  }

  // Runs `batch` under a scheduling context named `tenant` and checks
  // that it went through the scheduler, one task per item.
  template <typename Fn>
  static void RunPooled(const std::string& tenant, size_t items, Fn batch) {
    const uint64_t before = TenantTasks(tenant);
    {
      ScopedSchedulingContext ctx(SchedulingContext{tenant, 1});
      batch();
    }
    if (ThreadPool::Global().num_threads() > 1) {
      EXPECT_EQ(TenantTasks(tenant) - before, items);
    }
  }

  static Image PanelWithDigits(size_t i) {
    Image panel(40, 20, 3);
    for (auto& b : panel.bytes()) b = static_cast<uint8_t>(20 + i % 7);
    sim::DrawDigits(&panel, BBox{2, 2, 38, 18}, std::to_string(10 + i * 7));
    return panel;
  }

  Device* device_ = GetDevice(DeviceKind::kCpuVector);
};

TEST_F(PooledBatchTest, ForwardBatchEqualsSingleCalls) {
  Network net("pooled");
  auto* conv = net.Add<Conv2d>(3, 4, 3, 1, 1);
  Rng rng(21);
  conv->InitRandom(&rng, 0.3f);
  net.Add<ReluLayer>();
  std::vector<Tensor> inputs;
  for (size_t i = 0; i < BatchSize(); ++i) {
    Tensor t({3, 6, 6});
    for (int64_t j = 0; j < t.size(); ++j) {
      t[j] = static_cast<float>(rng.NextGaussian());
    }
    inputs.push_back(std::move(t));
  }
  Result<std::vector<Tensor>> batch = Status::Internal("not run");
  RunPooled("pooled-forward", inputs.size(),
            [&] { batch = ForwardBatch(net, inputs, device_); });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto single = net.Forward(inputs[i], device_);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*batch)[i].size(), single->size());
    for (int64_t j = 0; j < single->size(); ++j) {
      EXPECT_EQ((*batch)[i][j], (*single)[j]) << "item " << i << " @" << j;
    }
  }
}

TEST_F(PooledBatchTest, DetectBatchEqualsSingleCalls) {
  TinySsdDetector detector;
  std::vector<Image> frames;
  for (size_t i = 0; i < BatchSize(); ++i) {
    const int k = static_cast<int>(i);
    std::vector<sim::SceneObject> objects = {
        MakeObject(ObjectClass::kCar, 8 + 6 * (k % 12), 40, 16, 7, 1),
        MakeObject(ObjectClass::kPerson, 90 - 3 * (k % 10), 10, 5, 14, 2)};
    frames.push_back(sim::RenderScene(128, 72, sim::Background::kAsphalt,
                                      objects, 200 + i));
  }
  Result<std::vector<std::vector<Detection>>> batch =
      Status::Internal("not run");
  RunPooled("pooled-detect", frames.size(),
            [&] { batch = detector.DetectBatch(frames, device_); });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), frames.size());
  size_t detections = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    auto single = detector.Detect(frames[i], device_);
    ASSERT_TRUE(single.ok());
    detections += single->size();
    ASSERT_EQ((*batch)[i].size(), single->size()) << "frame " << i;
    for (size_t j = 0; j < single->size(); ++j) {
      const Detection& b = (*batch)[i][j];
      const Detection& s = (*single)[j];
      EXPECT_EQ(b.bbox.x0, s.bbox.x0);
      EXPECT_EQ(b.bbox.y0, s.bbox.y0);
      EXPECT_EQ(b.bbox.x1, s.bbox.x1);
      EXPECT_EQ(b.bbox.y1, s.bbox.y1);
      EXPECT_EQ(b.label, s.label);
      EXPECT_EQ(b.score, s.score);
    }
  }
  EXPECT_GE(detections, frames.size());  // the scenes are not empty
}

TEST_F(PooledBatchTest, RecognizeTextBatchEqualsSingleCalls) {
  TinyOcr ocr;
  std::vector<Image> panels;
  for (size_t i = 0; i < BatchSize(); ++i) panels.push_back(PanelWithDigits(i));
  std::vector<const Image*> ptrs;
  for (const Image& p : panels) ptrs.push_back(&p);
  Result<std::vector<std::string>> batch = Status::Internal("not run");
  RunPooled("pooled-ocr", ptrs.size(),
            [&] { batch = ocr.RecognizeTextBatch(ptrs, device_); });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), panels.size());
  for (size_t i = 0; i < panels.size(); ++i) {
    auto single = ocr.RecognizeText(panels[i], device_);
    ASSERT_TRUE(single.ok());
    EXPECT_FALSE(single->empty()) << "panel " << i;
    EXPECT_EQ((*batch)[i], *single) << "panel " << i;
  }
}

TEST_F(PooledBatchTest, PredictDepthBatchEqualsSingleCalls) {
  TinyDepth model(kFocalTimesHeight);
  std::vector<Image> crops;
  std::vector<BBox> bboxes;
  for (size_t i = 0; i < BatchSize(); ++i) {
    const int h = 12 + static_cast<int>(i % 9) * 3;
    sim::SceneObject ped = MakeObject(ObjectClass::kPerson,
                                      10 + static_cast<int>(i % 20) * 5, 4,
                                      std::max(3, h / 3), h);
    Image frame = sim::RenderScene(128, 72, sim::Background::kAsphalt, {ped},
                                   300 + i);
    crops.push_back(
        frame.Crop(ped.bbox.x0, ped.bbox.y0, ped.bbox.x1, ped.bbox.y1));
    bboxes.push_back(ped.bbox);
  }
  std::vector<const Image*> ptrs;
  for (const Image& c : crops) ptrs.push_back(&c);
  const std::vector<int> frame_hs(crops.size(), 72);
  Result<std::vector<float>> batch = Status::Internal("not run");
  RunPooled("pooled-depth", ptrs.size(), [&] {
    batch = model.PredictDepthBatch(ptrs, bboxes, frame_hs, device_);
  });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), crops.size());
  for (size_t i = 0; i < crops.size(); ++i) {
    auto single = model.PredictDepth(crops[i], bboxes[i], 72, device_);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i], *single) << "crop " << i;
  }
}

TEST(DomainTest, BBoxIou) {
  BBox a{0, 0, 10, 10};
  BBox b{5, 0, 15, 10};
  EXPECT_NEAR(a.Iou(b), 50.0f / 150.0f, 1e-5f);
  EXPECT_EQ(a.Iou(BBox{20, 20, 30, 30}), 0.0f);
  EXPECT_NEAR(a.Iou(a), 1.0f, 1e-6f);
}

TEST(DomainTest, GlyphFontShapes) {
  for (int d = 0; d < 10; ++d) {
    int ink = 0;
    for (int y = 0; y < kGlyphHeight; ++y) {
      for (int x = 0; x < kGlyphWidth; ++x) {
        if (GlyphPixel(d, x, y)) ++ink;
      }
    }
    EXPECT_GT(ink, 5) << "digit " << d;
  }
  EXPECT_FALSE(GlyphPixel(3, -1, 0));
  EXPECT_FALSE(GlyphPixel(11, 0, 0));
}

}  // namespace
}  // namespace nn
}  // namespace deeplens
