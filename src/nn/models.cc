#include "nn/models.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "tensor/ops.h"

namespace deeplens {
namespace nn {

namespace {

// Color-contrast weight vectors over (R, G, B) in [0,1], one per class.
// Applied as a 3×3 box filter so mild blur/noise averages out. The text
// channel is a "whiteness" detector with a negative bias so mid-gray
// background stays below zero after ReLU.
struct ContrastSpec {
  float wr, wg, wb, bias;
  /// Box-spread filters average the contrast over the 3×3 support (noise
  /// robustness for solid-colored bodies); center-tap filters keep the
  /// per-pixel value, which sparse structures (thin glyph strokes) need —
  /// averaging brightness before the bias would drown them in background.
  bool center_only;
};
constexpr ContrastSpec kContrast[kNumClasses] = {
    {+2.0f, -1.0f, -1.0f, 0.0f, false},   // car (red-dominant)
    {-1.0f, +2.0f, -1.0f, 0.0f, false},   // person (green-dominant)
    {-1.0f, -1.0f, +2.0f, 0.0f, false},   // player (blue-dominant)
    {+1.0f, +1.0f, +1.0f, -2.2f, true},   // text glyphs (near-white)
};

constexpr int kBackboneChannels = 8;

}  // namespace

// ---------------------------------------------------------------------
// TinySSD
// ---------------------------------------------------------------------

TinySsdDetector::TinySsdDetector(DetectorOptions options)
    : options_(options), net_("tiny-ssd") {
  Rng rng(0x55Dull);

  // conv1: 3 → 8. Channels 0..3 are the class color-contrast filters
  // spread over the 3×3 support; channels 4..7 are fixed pseudo-random
  // texture filters that add realistic compute (and are consumed with
  // small weights downstream).
  auto* conv1 = net_.Add<Conv2d>(3, kBackboneChannels, 3, 1, 1);
  conv1->InitRandom(&rng, 0.05f);
  {
    Tensor& w = conv1->weights();  // {8, 3*3*3} = {out, in*k*k}
    for (int cls = 0; cls < kNumClasses; ++cls) {
      const ContrastSpec& spec = kContrast[cls];
      for (int in_c = 0; in_c < 3; ++in_c) {
        const float wv =
            in_c == 0 ? spec.wr : (in_c == 1 ? spec.wg : spec.wb);
        for (int tap = 0; tap < 9; ++tap) {
          if (spec.center_only) {
            w.At(cls, in_c * 9 + tap) = tap == 4 ? wv : 0.0f;
          } else {
            w.At(cls, in_c * 9 + tap) = wv / 9.0f;
          }
        }
      }
      conv1->bias()[cls] = spec.bias;
    }
  }
  net_.Add<ReluLayer>();

  // conv2: 8 → 8 smoothing. The class channels pass through a 3×3 box on
  // themselves; texture channels stay random.
  auto* conv2 = net_.Add<Conv2d>(kBackboneChannels, kBackboneChannels, 3, 1, 1);
  conv2->InitRandom(&rng, 0.05f);
  {
    Tensor& w = conv2->weights();  // {8, 8*9}
    for (int cls = 0; cls < kNumClasses; ++cls) {
      for (int in_c = 0; in_c < kBackboneChannels; ++in_c) {
        for (int tap = 0; tap < 9; ++tap) {
          w.At(cls, in_c * 9 + tap) =
              in_c == cls ? (1.0f / 9.0f) : 0.0f;
        }
      }
    }
  }
  net_.Add<ReluLayer>();

  // Head: pool down to the detection grid, then a 1×1 conv that selects
  // the class channels.
  const int pool = options_.input_size / options_.grid;
  net_.Add<AvgPool2d>(pool);
  auto* head = net_.Add<Conv2d>(kBackboneChannels, kNumClasses, 1, 1, 0);
  {
    Tensor& w = head->weights();  // {4, 8}
    for (int cls = 0; cls < kNumClasses; ++cls) {
      for (int in_c = 0; in_c < kBackboneChannels; ++in_c) {
        w.At(cls, in_c) = in_c == cls ? 1.0f : 0.0f;
      }
    }
  }
}

std::vector<Detection> TinySsdDetector::DecodeGrid(const Tensor& scores,
                                                   int frame_w,
                                                   int frame_h) const {
  const int grid = options_.grid;
  std::vector<Detection> out;

  // Per class: threshold the grid, then merge 4-adjacent active cells
  // into connected components (union-find over the grid).
  std::vector<int> parent(static_cast<size_t>(grid) * grid);
  std::vector<float> cell_score(static_cast<size_t>(grid) * grid);
  std::vector<bool> active(static_cast<size_t>(grid) * grid);

  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };

  for (int cls = 0; cls < kNumClasses; ++cls) {
    const float threshold = options_.threshold[cls];
    bool any = false;
    for (int gy = 0; gy < grid; ++gy) {
      for (int gx = 0; gx < grid; ++gx) {
        const int idx = gy * grid + gx;
        const float s = scores.At(cls, gy, gx);
        active[static_cast<size_t>(idx)] = s >= threshold;
        cell_score[static_cast<size_t>(idx)] = s;
        parent[static_cast<size_t>(idx)] = idx;
        any = any || active[static_cast<size_t>(idx)];
      }
    }
    if (!any) continue;
    for (int gy = 0; gy < grid; ++gy) {
      for (int gx = 0; gx < grid; ++gx) {
        const int idx = gy * grid + gx;
        if (!active[static_cast<size_t>(idx)]) continue;
        if (gx > 0 && active[static_cast<size_t>(idx - 1)]) {
          parent[static_cast<size_t>(find(idx))] = find(idx - 1);
        }
        if (gy > 0 && active[static_cast<size_t>(idx - grid)]) {
          parent[static_cast<size_t>(find(idx))] = find(idx - grid);
        }
      }
    }
    // Gather component extents.
    struct Comp {
      int min_gx = 1 << 30, min_gy = 1 << 30, max_gx = -1, max_gy = -1;
      float score = 0.0f;
    };
    std::unordered_map<int, Comp> comps;
    for (int gy = 0; gy < grid; ++gy) {
      for (int gx = 0; gx < grid; ++gx) {
        const int idx = gy * grid + gx;
        if (!active[static_cast<size_t>(idx)]) continue;
        Comp& comp = comps[find(idx)];
        comp.min_gx = std::min(comp.min_gx, gx);
        comp.min_gy = std::min(comp.min_gy, gy);
        comp.max_gx = std::max(comp.max_gx, gx);
        comp.max_gy = std::max(comp.max_gy, gy);
        comp.score = std::max(comp.score, cell_score[static_cast<size_t>(idx)]);
      }
    }
    const float cell_w = static_cast<float>(frame_w) / grid;
    const float cell_h = static_cast<float>(frame_h) / grid;
    for (const auto& [root, comp] : comps) {
      (void)root;
      Detection d;
      d.bbox.x0 = static_cast<int>(comp.min_gx * cell_w);
      d.bbox.y0 = static_cast<int>(comp.min_gy * cell_h);
      d.bbox.x1 = static_cast<int>((comp.max_gx + 1) * cell_w);
      d.bbox.y1 = static_cast<int>((comp.max_gy + 1) * cell_h);
      d.label = static_cast<ObjectClass>(cls);
      d.score = comp.score;
      out.push_back(d);
    }
  }
  return out;
}

namespace {

// Per-pixel class contrast in [0,1]-scaled RGB (mirrors conv1's filters).
float PixelContrast(const Image& frame, int x, int y,
                    const ContrastSpec& spec) {
  const float r = static_cast<float>(frame.At(x, y, 0)) / 255.0f;
  const float g = static_cast<float>(frame.At(x, y, 1)) / 255.0f;
  const float b = static_cast<float>(frame.At(x, y, 2)) / 255.0f;
  return r * spec.wr + g * spec.wg + b * spec.wb + spec.bias;
}

}  // namespace

// Grid cells quantize boxes coarsely (a 5 px pedestrian gets a 10 px cell
// box that is half background). Like an SSD's regression head, refine each
// box to the tight extent of pixels matching the class contrast — this is
// what makes downstream crops identity-pure.
static void RefineDetections(const Image& frame, std::vector<Detection>* dets) {
  constexpr int kMargin = 2;
  constexpr float kPixelThreshold = 0.30f;
  for (Detection& d : *dets) {
    const ContrastSpec& spec = kContrast[static_cast<int>(d.label)];
    int x0 = frame.width(), y0 = frame.height(), x1 = -1, y1 = -1;
    const int sx0 = std::max(0, d.bbox.x0 - kMargin);
    const int sy0 = std::max(0, d.bbox.y0 - kMargin);
    const int sx1 = std::min(frame.width(), d.bbox.x1 + kMargin);
    const int sy1 = std::min(frame.height(), d.bbox.y1 + kMargin);
    for (int y = sy0; y < sy1; ++y) {
      for (int x = sx0; x < sx1; ++x) {
        if (PixelContrast(frame, x, y, spec) < kPixelThreshold) continue;
        x0 = std::min(x0, x);
        y0 = std::min(y0, y);
        x1 = std::max(x1, x);
        y1 = std::max(y1, y);
      }
    }
    if (x1 >= x0 && y1 >= y0) {
      d.bbox = BBox{x0, y0, x1 + 1, y1 + 1};
    }
  }
}

Result<std::vector<Detection>> TinySsdDetector::Detect(
    const Image& frame, Device* device) const {
  if (frame.empty() || frame.channels() != 3) {
    return Status::InvalidArgument("TinySSD expects a non-empty RGB frame");
  }
  const Image resized =
      frame.Resize(options_.input_size, options_.input_size);
  DL_ASSIGN_OR_RETURN(Tensor scores,
                      net_.Forward(resized.ToTensorCHW(), device));
  std::vector<Detection> dets =
      DecodeGrid(scores, frame.width(), frame.height());
  RefineDetections(frame, &dets);
  return dets;
}

Result<std::vector<std::vector<Detection>>> TinySsdDetector::DetectBatch(
    const std::vector<Image>& frames, Device* device) const {
  // The full per-frame pipeline (resample → forward → decode → refine)
  // runs per item, the way production inference services batch
  // preprocessing alongside the network.
  size_t transfer_bytes = 0;
  for (const Image& f : frames) transfer_bytes += f.size_bytes();
  std::vector<std::vector<Detection>> result(frames.size());
  DL_RETURN_NOT_OK(MapBatch(device, frames.size(), transfer_bytes,
                            [&](size_t i, Device* math) -> Status {
                              DL_ASSIGN_OR_RETURN(result[i],
                                                  Detect(frames[i], math));
                              return Status::OK();
                            }));
  return result;
}

// ---------------------------------------------------------------------
// TinyOCR
// ---------------------------------------------------------------------

namespace {
constexpr int kOcrInput = 8;  // glyphs are resampled to 8×8 grayscale

// Binarization threshold for glyph ink. Glyphs render near-white
// (kGlyphBrightness = 240) while every background the corpus produces —
// document gray (~186), jersey blue, text panels — stays below 200, so a
// high threshold keeps bright backgrounds out of the ink mask. Lossy
// encodings that pull glyphs below this threshold genuinely break OCR,
// which is the Figure 2 accuracy effect.
constexpr int kInkThreshold = 200;

// The one glyph-ink test: a pixel is ink when the integer mean of its
// channels reaches kInkThreshold. The mean is never formed: for integers
// s >= 0 and c >= 1, floor(s / c) >= T exactly when s >= T * c, so each
// pixel's channel sum is compared with a bound fixed per image instead of
// being divided.
struct InkPredicate {
  explicit InkPredicate(int channels)
      : min_sum(kInkThreshold * std::max(1, channels)) {}
  bool operator()(int channel_sum) const { return channel_sum >= min_sum; }
  int min_sum;
};

// Sum of one interleaved pixel's channels.
inline int ChannelSum(const uint8_t* px, int channels) {
  if (channels == 3) return px[0] + px[1] + px[2];
  int s = 0;
  for (int c = 0; c < channels; ++c) s += px[c];
  return s;
}

// Binarizes the glyph in rectangle [x0, x0 + gw) × [y0, y0 + gh) of `src`
// into the recognizer's 8×8 input. Segmentation crops to the ink extent,
// which distorts narrow digits ('1' uses 3 of the font's 5 columns), so
// the rectangle is centred on a canvas of the font's 5:7 aspect and the
// canvas is sampled nearest-neighbour; samples in its margins are not ink.
void SampleGlyph(const Image& src, int x0, int y0, int gw, int gh,
                 float* out /* 64 */) {
  const int canvas_w = std::max(gw, gh * kGlyphWidth / kGlyphHeight);
  const int canvas_h = std::max(gh, gw * kGlyphHeight / kGlyphWidth);
  const int ox = (canvas_w - gw) / 2;
  const int oy = (canvas_h - gh) / 2;
  const int channels = src.channels();
  const InkPredicate is_ink(channels);
  for (int y = 0; y < kOcrInput; ++y) {
    const int gy = y * canvas_h / kOcrInput - oy;
    for (int x = 0; x < kOcrInput; ++x) {
      const int gx = x * canvas_w / kOcrInput - ox;
      bool on = false;
      if (gy >= 0 && gy < gh && gx >= 0 && gx < gw) {
        const uint8_t* px =
            src.data() +
            ((static_cast<size_t>(y0) + gy) * src.width() + x0 + gx) *
                channels;
        on = is_ink(ChannelSum(px, channels));
      }
      out[y * kOcrInput + x] = on ? 1.0f : 0.0f;
    }
  }
}

// Renders digit `d`'s 5×7 glyph into an 8×8 [0,1] template, the same
// resampling the recognizer applies to incoming glyph crops.
void DigitTemplate(int d, float* out /* 64 */) {
  for (int y = 0; y < kOcrInput; ++y) {
    const int sy = y * kGlyphHeight / kOcrInput;
    for (int x = 0; x < kOcrInput; ++x) {
      const int sx = x * kGlyphWidth / kOcrInput;
      out[y * kOcrInput + x] = GlyphPixel(d, sx, sy) ? 1.0f : 0.0f;
    }
  }
}
}  // namespace

TinyOcr::TinyOcr() : net_("tiny-ocr") {
  auto* fc = net_.Add<Linear>(kOcrInput * kOcrInput, 10);
  Tensor& w = fc->weights();  // {10, 64}
  float tmpl[kOcrInput * kOcrInput];
  // Temperature applied to the matched-filter scores: a perfect match
  // scores ~1.0 before scaling, which softmax over 10 classes would turn
  // into only ~0.23 probability; ×6 sharpens perfect matches to ~0.98
  // while garbage stays diffuse (rejected by min_confidence_).
  constexpr float kLogitScale = 6.0f;
  for (int d = 0; d < 10; ++d) {
    DigitTemplate(d, tmpl);
    // Matched filter: +1 on ink, -1 off ink, normalized by template mass
    // so every digit's perfect-match score is ~1.
    float mass = 0.0f;
    for (float v : tmpl) mass += v;
    for (int i = 0; i < kOcrInput * kOcrInput; ++i) {
      w.At(d, i) = kLogitScale * (tmpl[i] > 0.5f ? 1.0f : -1.0f) / mass;
    }
  }
  net_.Add<SoftmaxLayer>();
}

Result<int> TinyOcr::RecognizeDigit(const Image& glyph,
                                    Device* device) const {
  if (glyph.empty()) return Status::InvalidArgument("empty glyph");
  return RecognizeGlyph(glyph, 0, 0, glyph.width(), glyph.height(), device);
}

Result<int> TinyOcr::RecognizeGlyph(const Image& src, int x0, int y0,
                                    int gw, int gh, Device* device) const {
  Tensor input({kOcrInput * kOcrInput});
  SampleGlyph(src, x0, y0, gw, gh, input.data());
  DL_ASSIGN_OR_RETURN(Tensor probs, net_.Forward(input, device));
  const int64_t best = ops::Argmax(probs);
  if (best < 0 || probs[best] < min_confidence_) {
    return Status::NotFound("glyph not legible");
  }
  return static_cast<int>(best);
}

Result<std::string> TinyOcr::RecognizeText(const Image& patch,
                                           Device* device) const {
  if (patch.empty()) return std::string();
  // Column projection profile over the binarized patch: runs of columns
  // containing ink are candidate glyphs.
  const int w = patch.width();
  const int h = patch.height();
  const int channels = patch.channels();
  const InkPredicate is_ink(channels);
  std::vector<int> col_ink(static_cast<size_t>(w), 0);
  std::vector<int> row_ink(static_cast<size_t>(h), 0);
  for (int y = 0; y < h; ++y) {
    const uint8_t* px = patch.data() + static_cast<size_t>(y) * w * channels;
    int row = 0;
    for (int x = 0; x < w; ++x, px += channels) {
      if (is_ink(ChannelSum(px, channels))) {
        ++col_ink[static_cast<size_t>(x)];
        ++row;
      }
    }
    row_ink[static_cast<size_t>(y)] = row;
  }
  // Vertical extent of the ink.
  int y0 = 0, y1 = h;
  while (y0 < h && row_ink[static_cast<size_t>(y0)] == 0) ++y0;
  while (y1 > y0 && row_ink[static_cast<size_t>(y1 - 1)] == 0) --y1;
  if (y0 >= y1) return std::string();

  std::string result;
  int x = 0;
  while (x < w) {
    while (x < w && col_ink[static_cast<size_t>(x)] == 0) ++x;
    if (x >= w) break;
    int run_start = x;
    while (x < w && col_ink[static_cast<size_t>(x)] > 0) ++x;
    auto digit =
        RecognizeGlyph(patch, run_start, y0, x - run_start, y1 - y0, device);
    if (digit.ok()) {
      result += static_cast<char>('0' + digit.value());
    }
  }
  return result;
}

Result<std::vector<std::string>> TinyOcr::RecognizeTextBatch(
    const std::vector<const Image*>& patches, Device* device) const {
  size_t transfer_bytes = 0;
  for (const Image* p : patches) {
    if (p != nullptr) transfer_bytes += p->size_bytes();
  }
  std::vector<std::string> result(patches.size());
  DL_RETURN_NOT_OK(MapBatch(
      device, patches.size(), transfer_bytes,
      [&](size_t i, Device* math) -> Status {
        if (patches[i] == nullptr) {
          return Status::InvalidArgument("TinyOCR batch: null patch");
        }
        DL_ASSIGN_OR_RETURN(result[i], RecognizeText(*patches[i], math));
        return Status::OK();
      }));
  return result;
}

bool TinyOcr::ProxyHasInk(const Image& patch) const {
  if (patch.empty()) return false;
  // Stride-2 scan: the 5×7 font's strokes span multiple pixels at any
  // render scale the corpus produces, so sampling half the rows/columns
  // still lands on ink when there is any. ~4× cheaper than the full
  // binarization pass, and vastly cheaper than segmentation + per-glyph
  // matched filters.
  const int channels = patch.channels();
  const InkPredicate is_ink(channels);
  const size_t row_bytes = static_cast<size_t>(patch.width()) * channels;
  const size_t step = 2 * static_cast<size_t>(channels);
  for (int y = 0; y < patch.height(); y += 2) {
    const uint8_t* row = patch.data() + static_cast<size_t>(y) * row_bytes;
    for (size_t off = 0; off < row_bytes; off += step) {
      if (is_ink(ChannelSum(row + off, channels))) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// TinyDepth
// ---------------------------------------------------------------------

namespace {
constexpr int kDepthInput = 16;
constexpr int kDepthConvFeatures = 4;
}  // namespace

TinyDepth::TinyDepth(float focal_times_height)
    : focal_times_height_(focal_times_height),
      conv_net_("tiny-depth"),
      head_(1 + kDepthConvFeatures, 1) {
  Rng rng(0xDEB7ull);
  auto* conv1 = conv_net_.Add<Conv2d>(3, 4, 3, 2, 1);
  conv1->InitRandom(&rng, 0.2f);
  conv_net_.Add<ReluLayer>();
  auto* conv2 = conv_net_.Add<Conv2d>(4, kDepthConvFeatures, 3, 2, 1);
  conv2->InitRandom(&rng, 0.2f);
  conv_net_.Add<ReluLayer>();
  conv_net_.Add<AvgPool2d>(kDepthInput / 4);
  conv_net_.Add<FlattenLayer>();

  // Head: depth = focal·H / apparent_height + ε·conv_features. The first
  // input carries the geometric cue; pixel features perturb it slightly
  // (they model the residual corrections a trained FCRN would apply).
  Tensor& w = head_.weights();
  w.At(0, 0) = 1.0f;
  for (int i = 0; i < kDepthConvFeatures; ++i) {
    w.At(0, 1 + i) = 0.02f * static_cast<float>(rng.NextGaussian());
  }
}

float TinyDepth::ProxyDepth(const BBox& bbox) const {
  if (bbox.Height() <= 0) return 0.1f;
  // The geometry cue carries head weight 1.0 while the conv features are
  // scaled by 0.02; the proxy is the full prediction minus that small
  // pixel-dependent residual, clamped like PredictDepth's output.
  return std::max(0.1f,
                  focal_times_height_ / static_cast<float>(bbox.Height()));
}

Result<float> TinyDepth::PredictDepth(const Image& patch, const BBox& bbox,
                                      int /*frame_h*/, Device* device) const {
  if (patch.empty() || bbox.Height() <= 0) {
    return Status::InvalidArgument("TinyDepth needs a non-degenerate patch");
  }
  const Image resized = patch.Resize(kDepthInput, kDepthInput);
  DL_ASSIGN_OR_RETURN(Tensor features,
                      conv_net_.Forward(resized.ToTensorCHW(), device));
  Tensor head_in({1 + kDepthConvFeatures});
  head_in[0] = focal_times_height_ / static_cast<float>(bbox.Height());
  for (int i = 0; i < kDepthConvFeatures && i < features.size(); ++i) {
    head_in[1 + i] = features[i];
  }
  DL_ASSIGN_OR_RETURN(Tensor depth, head_.Forward(head_in, device));
  return std::max(0.1f, depth[0]);
}

Result<std::vector<float>> TinyDepth::PredictDepthBatch(
    const std::vector<const Image*>& patches, const std::vector<BBox>& bboxes,
    const std::vector<int>& frame_hs, Device* device) const {
  if (patches.size() != bboxes.size() || patches.size() != frame_hs.size()) {
    return Status::InvalidArgument("TinyDepth batch: mismatched item arrays");
  }
  size_t transfer_bytes = 0;
  for (const Image* p : patches) {
    if (p != nullptr) transfer_bytes += p->size_bytes();
  }
  std::vector<float> result(patches.size(), 0.0f);
  DL_RETURN_NOT_OK(MapBatch(
      device, patches.size(), transfer_bytes,
      [&](size_t i, Device* math) -> Status {
        if (patches[i] == nullptr) {
          return Status::InvalidArgument(
              "TinyDepth needs a non-degenerate patch");
        }
        DL_ASSIGN_OR_RETURN(
            result[i],
            PredictDepth(*patches[i], bboxes[i], frame_hs[i], math));
        return Status::OK();
      }));
  return result;
}

}  // namespace nn
}  // namespace deeplens
