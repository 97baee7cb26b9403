// Unit tests for codec/: DCT orthogonality, quantization, entropy coding,
// the LJPG image codec (quality → loss monotonicity), and the DLV1 video
// codec (GOP structure, sequential decode, compression properties).
#include <gtest/gtest.h>

#include <cmath>

#include "codec/dct.h"
#include "codec/entropy.h"
#include "codec/image_codec.h"
#include "codec/quant.h"
#include "codec/video_codec.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/datasets.h"

namespace deeplens {
namespace codec {
namespace {

Image NoisyImage(int w, int h, uint64_t seed, int base = 120,
                 int amplitude = 40) {
  Image img(w, h, 3);
  Rng rng(seed);
  for (auto& b : img.bytes()) {
    b = static_cast<uint8_t>(
        std::clamp<int64_t>(base + rng.NextInt(-amplitude, amplitude), 0,
                            255));
  }
  return img;
}

TEST(DctTest, RoundTripIsIdentity) {
  Rng rng(1);
  float block[kBlockArea], coeffs[kBlockArea], back[kBlockArea];
  for (int i = 0; i < kBlockArea; ++i) {
    block[i] = static_cast<float>(rng.NextUniform(-128, 128));
  }
  ForwardDct8x8(block, coeffs);
  InverseDct8x8(coeffs, back);
  for (int i = 0; i < kBlockArea; ++i) {
    EXPECT_NEAR(back[i], block[i], 1e-3f);
  }
}

TEST(DctTest, ConstantBlockHasOnlyDcCoefficient) {
  float block[kBlockArea], coeffs[kBlockArea];
  for (int i = 0; i < kBlockArea; ++i) block[i] = 50.0f;
  ForwardDct8x8(block, coeffs);
  // DC = 50 * 8 (orthonormal scaling), all AC ~ 0.
  EXPECT_NEAR(coeffs[0], 400.0f, 1e-2f);
  for (int i = 1; i < kBlockArea; ++i) EXPECT_NEAR(coeffs[i], 0.0f, 1e-3f);
}

TEST(DctTest, EnergyPreserved) {
  // Orthonormal transform preserves the L2 norm (Parseval).
  Rng rng(2);
  float block[kBlockArea], coeffs[kBlockArea];
  for (int i = 0; i < kBlockArea; ++i) {
    block[i] = static_cast<float>(rng.NextGaussian() * 30);
  }
  ForwardDct8x8(block, coeffs);
  float e1 = 0, e2 = 0;
  for (int i = 0; i < kBlockArea; ++i) {
    e1 += block[i] * block[i];
    e2 += coeffs[i] * coeffs[i];
  }
  EXPECT_NEAR(e1, e2, e1 * 1e-4f);
}

TEST(QuantTest, TablesGrowWithLossiness) {
  const float* high = QuantTable(Quality::kHigh);
  const float* low = QuantTable(Quality::kLow);
  float sum_high = 0, sum_low = 0;
  for (int i = 0; i < kBlockArea; ++i) {
    EXPECT_GE(high[i], 1.0f);
    sum_high += high[i];
    sum_low += low[i];
  }
  EXPECT_GT(sum_low, sum_high);
}

TEST(QuantTest, RoundTripErrorBoundedByTable) {
  Rng rng(3);
  float coeffs[kBlockArea], back[kBlockArea];
  int32_t q[kBlockArea];
  for (int i = 0; i < kBlockArea; ++i) {
    coeffs[i] = static_cast<float>(rng.NextUniform(-500, 500));
  }
  QuantizeBlock(coeffs, Quality::kMedium, q);
  DequantizeBlock(q, Quality::kMedium, back);
  const float* table = QuantTable(Quality::kMedium);
  for (int i = 0; i < kBlockArea; ++i) {
    EXPECT_LE(std::fabs(back[i] - coeffs[i]), table[i] * 0.5f + 1e-3f);
  }
}

TEST(EntropyTest, ZigzagIsAPermutation) {
  const int* order = ZigzagOrder();
  bool seen[kBlockArea] = {};
  for (int i = 0; i < kBlockArea; ++i) {
    ASSERT_GE(order[i], 0);
    ASSERT_LT(order[i], kBlockArea);
    EXPECT_FALSE(seen[order[i]]);
    seen[order[i]] = true;
  }
  // Starts at DC, then the two first AC coefficients.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 8);
}

class EntropyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EntropyRoundTrip, RandomSparseBlocks) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  int32_t block[kBlockArea] = {};
  // Sparsity typical of quantized DCT output.
  const int nonzero = GetParam() % kBlockArea;
  for (int i = 0; i < nonzero; ++i) {
    block[rng.NextU64Below(kBlockArea)] =
        static_cast<int32_t>(rng.NextInt(-2000, 2000));
  }
  ByteBuffer buf;
  EncodeBlock(block, &buf);
  ByteReader reader(buf.AsSlice());
  int32_t decoded[kBlockArea];
  ASSERT_TRUE(DecodeBlock(&reader, decoded).ok());
  for (int i = 0; i < kBlockArea; ++i) EXPECT_EQ(decoded[i], block[i]);
}

INSTANTIATE_TEST_SUITE_P(Sparsities, EntropyRoundTrip,
                         ::testing::Values(0, 1, 3, 7, 13, 29, 47, 63, 64,
                                           100));

TEST(EntropyTest, AllZeroBlockIsTiny) {
  int32_t block[kBlockArea] = {};
  ByteBuffer buf;
  EncodeBlock(block, &buf);
  EXPECT_LE(buf.size(), 2u);
}

TEST(ImageCodecTest, RawRoundTripIsLossless) {
  Image img = NoisyImage(37, 23, 11);
  auto bytes = SerializeRawImage(img);
  auto back = DeserializeRawImage(Slice(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Image::MeanAbsDiff(img, *back), 0.0);
}

TEST(ImageCodecTest, RejectsWrongMagic) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_TRUE(DecodeImage(Slice(garbage)).status().IsCorruption());
  EXPECT_TRUE(DeserializeRawImage(Slice(garbage)).status().IsCorruption());
}

class LjpgQuality : public ::testing::TestWithParam<Quality> {};

TEST_P(LjpgQuality, RoundTripWithinQualityBound) {
  Image img = NoisyImage(64, 48, 21, 128, 60);
  auto bytes = EncodeImage(img, GetParam());
  auto back = DecodeImage(Slice(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->width(), 64);
  EXPECT_EQ(back->height(), 48);
  const double mad = Image::MeanAbsDiff(img, *back);
  // Loss bounds per quality level; high is near-lossless.
  const double bound = GetParam() == Quality::kHigh
                           ? 4.0
                           : (GetParam() == Quality::kMedium ? 25.0 : 60.0);
  EXPECT_LE(mad, bound);
}

INSTANTIATE_TEST_SUITE_P(Levels, LjpgQuality,
                         ::testing::Values(Quality::kHigh, Quality::kMedium,
                                           Quality::kLow));

TEST(ImageCodecTest, LossAndSizeMonotonicInQuality) {
  Image img = NoisyImage(96, 64, 31, 110, 70);
  double prev_mad = -1;
  size_t prev_size = SIZE_MAX;
  for (Quality q : {Quality::kHigh, Quality::kMedium, Quality::kLow}) {
    auto bytes = EncodeImage(img, q);
    auto back = DecodeImage(Slice(bytes));
    ASSERT_TRUE(back.ok());
    const double mad = Image::MeanAbsDiff(img, *back);
    EXPECT_GT(mad, prev_mad);
    EXPECT_LT(bytes.size(), prev_size);
    prev_mad = mad;
    prev_size = bytes.size();
  }
}

TEST(ImageCodecTest, CompressesSmoothContent) {
  // Genuinely smooth content (a gradient) must compress far below raw.
  Image img(128, 128, 3);
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      for (int c = 0; c < 3; ++c) {
        img.At(x, y, c) = static_cast<uint8_t>((x + y + c * 20) / 2);
      }
    }
  }
  auto encoded = EncodeImage(img, Quality::kHigh);
  const size_t raw = SerializeRawImage(img).size();
  EXPECT_LT(encoded.size() * 5, raw);  // at least 5x on smooth content
}

TEST(ImageCodecTest, NonMultipleOfBlockSizeDimensions) {
  Image img = NoisyImage(13, 9, 51);
  auto bytes = EncodeImage(img, Quality::kHigh);
  auto back = DecodeImage(Slice(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->width(), 13);
  EXPECT_EQ(back->height(), 9);
  EXPECT_LE(Image::MeanAbsDiff(img, *back), 4.5);
}

std::vector<Image> MakeVideo(int frames, int w = 48, int h = 32) {
  // A moving bright square over a static noisy background: realistic
  // inter-frame correlation for P-frame coding.
  std::vector<Image> out;
  Image background = NoisyImage(w, h, 61, 90, 8);
  for (int f = 0; f < frames; ++f) {
    Image frame = background;
    const int x0 = (f * 2) % (w - 8);
    for (int y = 10; y < 18 && y < h; ++y) {
      for (int x = x0; x < x0 + 8; ++x) {
        for (int c = 0; c < 3; ++c) frame.At(x, y, c) = 220;
      }
    }
    out.push_back(std::move(frame));
  }
  return out;
}

TEST(VideoCodecTest, RoundTripAllFrames) {
  auto frames = MakeVideo(20);
  VideoCodecOptions options;
  options.quality = Quality::kHigh;
  options.gop_size = 8;
  auto stream = EncodeVideo(frames, options);
  ASSERT_TRUE(stream.ok());
  auto decoded = DecodeVideo(Slice(*stream));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_LE(Image::MeanAbsDiff(frames[i], (*decoded)[i]), 4.5)
        << "frame " << i;
  }
}

TEST(VideoCodecTest, NoDriftAcrossLongGop) {
  // P-frames predict from reconstructed frames, so error must not
  // accumulate within a GOP.
  auto frames = MakeVideo(33);
  VideoCodecOptions options;
  options.quality = Quality::kMedium;
  options.gop_size = 32;
  auto stream = EncodeVideo(frames, options);
  ASSERT_TRUE(stream.ok());
  auto decoded = DecodeVideo(Slice(*stream));
  ASSERT_TRUE(decoded.ok());
  EXPECT_LE(Image::MeanAbsDiff(frames[31], (*decoded)[31]), 16.0);
}

TEST(VideoCodecTest, InterBeatsAllIntraOnStaticContent) {
  auto frames = MakeVideo(32);
  VideoCodecOptions inter;
  inter.gop_size = 32;
  VideoCodecOptions intra;
  intra.gop_size = 1;
  auto inter_stream = EncodeVideo(frames, inter);
  auto intra_stream = EncodeVideo(frames, intra);
  ASSERT_TRUE(inter_stream.ok());
  ASSERT_TRUE(intra_stream.ok());
  EXPECT_LT(inter_stream->size() * 2, intra_stream->size());
}

TEST(VideoCodecTest, SeekDecodeIsSequential) {
  auto frames = MakeVideo(16);
  VideoCodecOptions options;
  options.gop_size = 16;
  auto stream = EncodeVideo(frames, options);
  ASSERT_TRUE(stream.ok());
  VideoDecoder dec{Slice(*stream)};
  ASSERT_TRUE(dec.Init().ok());
  auto img = dec.SeekDecode(10);
  ASSERT_TRUE(img.ok());
  // Frames 0..10 were all decoded to reach frame 10.
  EXPECT_EQ(dec.frames_decoded(), 11);
  // Rewinding is impossible on a sequential stream.
  EXPECT_TRUE(dec.SeekDecode(5).status().IsInvalidArgument());
}

TEST(VideoCodecTest, EndOfStream) {
  auto frames = MakeVideo(3);
  auto stream = EncodeVideo(frames, VideoCodecOptions{});
  VideoDecoder dec{Slice(*stream)};
  ASSERT_TRUE(dec.Init().ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(dec.NextFrame().ok());
  EXPECT_TRUE(dec.NextFrame().status().IsOutOfRange());
}

TEST(VideoCodecTest, MismatchedFrameSizeRejected) {
  VideoEncoder enc{VideoCodecOptions{}};
  ASSERT_TRUE(enc.AddFrame(Image(16, 16, 3)).ok());
  EXPECT_TRUE(enc.AddFrame(Image(8, 8, 3)).IsInvalidArgument());
  EXPECT_TRUE(enc.AddFrame(Image()).IsInvalidArgument());
}

TEST(VideoCodecTest, CorruptStreamRejected) {
  std::vector<uint8_t> garbage(64, 0x42);
  VideoDecoder dec{Slice(garbage)};
  EXPECT_FALSE(dec.Init().ok());
}

TEST(VideoCodecTest, QualityControlsStreamSize) {
  auto frames = MakeVideo(12);
  size_t prev = SIZE_MAX;
  for (Quality q : {Quality::kHigh, Quality::kMedium, Quality::kLow}) {
    VideoCodecOptions options;
    options.quality = q;
    auto stream = EncodeVideo(frames, options);
    ASSERT_TRUE(stream.ok());
    EXPECT_LT(stream->size(), prev);
    prev = stream->size();
  }
}

// --- Stream pins ------------------------------------------------------------
// The frame encoder codes blocks in parallel (channel, block-row) tasks
// and reconstructs P-frame references from its own quantized
// coefficients. Neither may change a byte: these CRC32Cs were taken from
// the serial raster-order encoder with an entropy-decoded reconstruction.

std::vector<Image> PinnedTrafficClip() {
  sim::TrafficCamConfig config;
  config.num_frames = 16;
  config.seed = 0xC0DEC16ull;
  sim::TrafficCamSim cam(config);
  std::vector<Image> frames;
  for (int f = 0; f < config.num_frames; ++f) frames.push_back(cam.FrameAt(f));
  return frames;
}

struct StreamPin {
  Quality quality;
  size_t size;
  uint32_t crc;
};

constexpr StreamPin kStreamPins[] = {
    {Quality::kHigh, 68976, 0x380bf02au},
    {Quality::kMedium, 15532, 0x34c0ae6cu},
    {Quality::kLow, 7964, 0xbb6d8447u},
};

std::vector<uint8_t> EncodePinnedClip(const std::vector<Image>& frames,
                                      Quality q) {
  VideoCodecOptions options;
  options.quality = q;
  options.gop_size = 8;  // two GOPs: I- and P-frames both pinned
  auto stream = EncodeVideo(frames, options);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  return stream.ok() ? *std::move(stream) : std::vector<uint8_t>{};
}

TEST(VideoCodecPinTest, StreamBytesMatchPinnedCrcAtEachQuality) {
  const std::vector<Image> frames = PinnedTrafficClip();
  for (const StreamPin& pin : kStreamPins) {
    const std::vector<uint8_t> stream = EncodePinnedClip(frames, pin.quality);
    EXPECT_EQ(stream.size(), pin.size) << QualityName(pin.quality);
    EXPECT_EQ(Crc32c(stream.data(), stream.size()), pin.crc)
        << QualityName(pin.quality);
  }
}

TEST(VideoCodecPinTest, SerialEncodeInsidePoolWorkerMatchesPins) {
  // Inside a pool worker the block tasks run as a serial loop.
  const std::vector<Image> frames = PinnedTrafficClip();
  for (const StreamPin& pin : kStreamPins) {
    std::vector<uint8_t> stream;
    ThreadPool::Global()
        .Submit([&] {
          EXPECT_TRUE(ThreadPool::InWorker());
          stream = EncodePinnedClip(frames, pin.quality);
        })
        .wait();
    EXPECT_EQ(stream.size(), pin.size) << QualityName(pin.quality);
    EXPECT_EQ(Crc32c(stream.data(), stream.size()), pin.crc)
        << QualityName(pin.quality);
  }
}

TEST(VideoCodecPinTest, ImageBytesMatchPin) {
  const std::vector<uint8_t> bytes =
      EncodeImage(PinnedTrafficClip()[3], Quality::kMedium);
  EXPECT_EQ(bytes.size(), 1428u);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x0d4cefb9u);
}

}  // namespace
}  // namespace codec
}  // namespace deeplens
