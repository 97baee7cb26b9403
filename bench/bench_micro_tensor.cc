// Micro-benchmarks for the compute kernels: scalar vs vectorized variants,
// the im2col+matmul convolution path, and one call of each per-tuple model
// (OCR on a text panel, the detector on a frame) — the per-op constants
// behind the Figure 8 device comparison. Report-only: no case is gated.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "sim/scene.h"
#include "tensor/ops.h"

namespace deeplens {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

void BM_MatmulScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomVec(n * n, 1);
  auto b = RandomVec(n * n, 2);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    ops::MatmulScalar(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MatmulScalar)->Arg(32)->Arg(128);

void BM_MatmulVector(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomVec(n * n, 3);
  auto b = RandomVec(n * n, 4);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    ops::MatmulVector(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MatmulVector)->Arg(32)->Arg(128);

void BM_L2SquaredScalar(benchmark::State& state) {
  auto a = RandomVec(64, 5);
  auto b = RandomVec(64, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::L2SquaredScalar(a.data(), b.data(), 64));
  }
}
BENCHMARK(BM_L2SquaredScalar);

void BM_L2SquaredVector(benchmark::State& state) {
  auto a = RandomVec(64, 7);
  auto b = RandomVec(64, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::L2SquaredVector(a.data(), b.data(), 64));
  }
}
BENCHMARK(BM_L2SquaredVector);

void BM_Conv2dForward(benchmark::State& state) {
  nn::Conv2d conv(3, 8, 3, 1, 1);
  Rng rng(9);
  conv.InitRandom(&rng);
  Tensor input({3, 64, 64});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(rng.NextDouble());
  }
  nn::Device* device = nn::GetDevice(nn::DeviceKind::kCpuVector);
  for (auto _ : state) {
    auto out = conv.Forward(input, device);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Conv2dForward);

// Unrolls a C×64×64 input for a 3×3, padding-1 convolution: C = 3 is the
// detector's first layer, C = 8 its second.
void BM_Im2Col(benchmark::State& state) {
  const int64_t channels = state.range(0);
  Rng rng(12);
  Tensor input({channels, 64, 64});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(rng.NextDouble());
  }
  for (auto _ : state) {
    Tensor cols = nn::Im2Col(input, 3, 1, 1);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col)->Arg(3)->Arg(8);

// One udf_mix-style OCR call: a 48×48 RGB panel carrying two digits.
void BM_RecognizeText(benchmark::State& state) {
  nn::TinyOcr ocr;
  Rng rng(13);
  Image panel(48, 48, 3);
  for (auto& b : panel.bytes()) {
    b = static_cast<uint8_t>(10 + rng.NextU64Below(20));
  }
  sim::DrawDigits(&panel, nn::BBox{4, 14, 44, 34}, "47");
  nn::Device* device = nn::GetDevice(nn::DeviceKind::kCpuVector);
  for (auto _ : state) {
    auto text = ocr.RecognizeText(panel, device);
    if (!text.ok() || *text != "47") {
      state.SkipWithError("RecognizeText misread the panel");
      break;
    }
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_RecognizeText);

// One detector call on a 128×72 traffic frame with three objects.
void BM_DetectFrame(benchmark::State& state) {
  nn::TinySsdDetector detector;
  std::vector<sim::SceneObject> objects(3);
  for (int i = 0; i < 3; ++i) {
    objects[i].cls = static_cast<nn::ObjectClass>(i);
    objects[i].bbox = nn::BBox{10 + 36 * i, 20, 30 + 36 * i, 34};
    objects[i].object_id = i + 1;
  }
  const Image frame = sim::RenderScene(128, 72, sim::Background::kAsphalt,
                                       objects, 14);
  nn::Device* device = nn::GetDevice(nn::DeviceKind::kCpuVector);
  for (auto _ : state) {
    auto dets = detector.Detect(frame, device);
    benchmark::DoNotOptimize(dets);
  }
}
BENCHMARK(BM_DetectFrame);

void BM_PairwiseL2Device(benchmark::State& state) {
  const auto kind = static_cast<nn::DeviceKind>(state.range(0));
  nn::Device* device = nn::GetDevice(kind);
  const size_t n = 256, dim = 48;
  auto a = RandomVec(n * dim, 10);
  auto b = RandomVec(n * dim, 11);
  std::vector<float> out(n * n);
  for (auto _ : state) {
    device->PairwiseL2Squared(a.data(), n, b.data(), n, dim, out.data());
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(nn::DeviceKindName(kind));
}
BENCHMARK(BM_PairwiseL2Device)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace deeplens

BENCHMARK_MAIN();
