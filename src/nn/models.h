// The three model instantiations DeepLens' benchmark uses (paper §4.1):
//  * TinySsdDetector — object detection (the paper's SSD [20]),
//  * TinyOcr         — text recognition on patches,
//  * TinyDepth       — monocular depth prediction (the paper's FCRN [18]).
//
// Unlike the paper's pre-trained networks, weights here are *constructed*:
// the first conv layer computes color-contrast features matched to the
// synthetic domain's class colors, so predictions genuinely respond to
// pixel content (and genuinely degrade under lossy encoding — Figure 2),
// while remaining fully deterministic and trainable-free for offline use.
#pragma once

#include <string>
#include <vector>

#include "nn/domain.h"
#include "nn/network.h"

namespace deeplens {
namespace nn {

/// One detected object in frame coordinates.
struct Detection {
  BBox bbox;
  ObjectClass label = ObjectClass::kCar;
  float score = 0.0f;
};

/// TinySSD tuning knobs.
struct DetectorOptions {
  /// Square resolution frames are resampled to before the backbone.
  int input_size = 64;
  /// Detection grid (cells per side); input_size must be a multiple.
  int grid = 16;
  /// Per-class score thresholds.
  float threshold[kNumClasses] = {0.22f, 0.22f, 0.22f, 0.035f};
};

/// \brief Grid-based single-shot detector over color-contrast features.
class TinySsdDetector {
 public:
  explicit TinySsdDetector(DetectorOptions options = DetectorOptions());

  /// Detects objects in one frame.
  Result<std::vector<Detection>> Detect(const Image& frame,
                                        Device* device) const;

  /// Batched variant: one MapBatch (nn/network.h) over frames, so the
  /// frames run in parallel on the morsel pool and the simulated GPU pays
  /// one launch for the whole batch. Frame i's detections equal
  /// Detect(frames[i]) on the per-item math device; the lowest-index
  /// failure is returned.
  Result<std::vector<std::vector<Detection>>> DetectBatch(
      const std::vector<Image>& frames, Device* device) const;

  const Network& network() const { return net_; }
  const DetectorOptions& options() const { return options_; }

 private:
  std::vector<Detection> DecodeGrid(const Tensor& scores, int frame_w,
                                    int frame_h) const;

  DetectorOptions options_;
  Network net_;
};

/// \brief Digit/string recognizer. Glyphs are segmented by column
/// projection, then classified by a matched-filter linear layer whose
/// weights are the font templates.
class TinyOcr {
 public:
  TinyOcr();

  /// Recognizes a single pre-cropped glyph (any size; resampled to 8×8).
  /// Returns the digit 0-9, or NotFound if confidence is too low.
  Result<int> RecognizeDigit(const Image& glyph, Device* device) const;

  /// Segments and recognizes a digit string in a text patch. Returns the
  /// empty string when nothing legible is found.
  Result<std::string> RecognizeText(const Image& patch,
                                    Device* device) const;

  /// Batched variant for the cross-query batch former: one MapBatch of
  /// RecognizeText over the patches (one launch on GpuSim, parallel on
  /// the morsel pool everywhere), so batched output is identical to
  /// unbatched by construction. Returns one string per patch, in order,
  /// or the lowest-index failure.
  Result<std::vector<std::string>> RecognizeTextBatch(
      const std::vector<const Image*>& patches, Device* device) const;

  /// Cheap proxy for RecognizeText: a subsampled ink scan. False means
  /// no sampled pixel reaches the glyph-ink threshold, so the full
  /// recognizer would almost certainly return "" — the planner's cascade
  /// uses this to skip OCR on inkless patches.
  bool ProxyHasInk(const Image& patch) const;

  const Network& network() const { return net_; }

 private:
  /// Recognizes the glyph in rectangle [x0, x0 + gw) × [y0, y0 + gh) of
  /// `src` (non-empty, inside `src`) without copying it out.
  Result<int> RecognizeGlyph(const Image& src, int x0, int y0, int gw,
                             int gh, Device* device) const;

  Network net_;
  float min_confidence_ = 0.30f;
};

/// \brief Monocular depth head. Combines the projective-geometry cue
/// (apparent height ∝ 1/depth) with a small conv feature extractor over
/// the patch pixels, mirroring how the FCRN baseline consumes pixels.
class TinyDepth {
 public:
  /// `focal_times_height` = focal length × real-world object height, the
  /// constant that maps apparent pixel height to metric depth. The sim
  /// renders pedestrians with the same constant (sim::kDepthConstant).
  explicit TinyDepth(float focal_times_height);

  /// Predicts depth (meters) of the object in `patch` whose bounding box
  /// in the source frame was `bbox` (frame height `frame_h` pixels).
  Result<float> PredictDepth(const Image& patch, const BBox& bbox,
                             int frame_h, Device* device) const;

  /// Batched variant for the cross-query batch former (parallel arrays,
  /// one entry per item): one MapBatch of PredictDepth over the items
  /// (one launch on GpuSim, parallel on the morsel pool everywhere). Any
  /// degenerate item fails the whole batch with the lowest-index
  /// failure — callers that need per-item isolation pre-validate.
  Result<std::vector<float>> PredictDepthBatch(
      const std::vector<const Image*>& patches,
      const std::vector<BBox>& bboxes, const std::vector<int>& frame_hs,
      Device* device) const;

  /// Cheap proxy for PredictDepth: the projective-geometry cue alone,
  /// skipping the conv feature extractor (whose contribution perturbs
  /// the geometric estimate by a few percent). Used by the planner's
  /// proxy cascades to reject rows whose estimate is far from the
  /// predicate's threshold without running the network.
  float ProxyDepth(const BBox& bbox) const;

  const Network& network() const { return conv_net_; }

 private:
  float focal_times_height_;
  Network conv_net_;  // pixel feature extractor (the compute-bound part)
  Linear head_;       // combines geometry cue with pixel features
};

}  // namespace nn
}  // namespace deeplens
