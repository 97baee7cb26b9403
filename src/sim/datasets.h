// The three benchmark datasets (paper §6.1), generated procedurally with
// full ground truth. Each sim is a pure function of (config, frame index),
// so frames can be streamed without materializing whole videos, and every
// run is bit-reproducible.
//
// Paper-scale cardinalities (35,280 traffic frames; 15 football videos /
// 15,244 frames; 779 PC images) are available via PaperScale(); the
// default configs are laptop-scale so the full benchmark suite runs in
// minutes.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/scene.h"

namespace deeplens {
namespace sim {

// ---------------------------------------------------------------------
// TrafficCam
// ---------------------------------------------------------------------

/// Traffic camera simulation: cars stream through lanes; a rotating cast
/// of pedestrian identities crosses at different depths.
struct TrafficCamConfig {
  int width = 128;
  int height = 72;
  int num_frames = 600;
  /// Concurrent car slots (one car per lane; lanes are 16 px apart).
  int num_cars = 3;
  /// Distinct pedestrian identities over the whole video (q4's truth).
  int num_pedestrians = 12;
  /// Fraction of frames that contain no cars at all (empty road gaps).
  double empty_fraction = 0.25;
  uint64_t seed = 0x7AFF1Cull;
  /// Identities of cars shared with another camera (cross-camera joins);
  /// empty = all cars private to this camera.
  std::vector<int> shared_car_ids;

  /// The paper's cardinality: 24 min 30 s of 1080p at 24 fps = 35,280
  /// frames (resolution stays scaled; see DESIGN.md substitutions).
  static TrafficCamConfig PaperScale() {
    TrafficCamConfig c;
    c.num_frames = 35280;
    c.num_pedestrians = 160;
    return c;
  }
};

/// Object-id ranges used by TrafficCamSim: pedestrians occupy
/// [kPedestrianIdBase, kPedestrianIdBase + num_pedestrians); private car
/// ids stay below 10000 (camera hash × 100 + slot).
inline constexpr int kPedestrianIdBase = 100000;

class TrafficCamSim {
 public:
  explicit TrafficCamSim(TrafficCamConfig config);

  /// True if `object_id` denotes a pedestrian identity.
  static bool IsPedestrianId(int object_id) {
    return object_id >= kPedestrianIdBase;
  }

  const TrafficCamConfig& config() const { return config_; }
  int num_frames() const { return config_.num_frames; }

  /// Ground truth at frame f (objects fully inside the frame only).
  FrameTruth TruthAt(int frameno) const;

  /// Rendered frame.
  Image FrameAt(int frameno) const;

  /// q2 truth: number of frames containing >= 1 car.
  int FramesWithVehicles() const;

  /// q4 truth: distinct pedestrian identities that ever appear.
  int DistinctPedestrians() const;

  /// q6 truth: (behind, front) pedestrian object-id pairs per frame.
  std::vector<std::pair<int, int>> BehindPairsAt(int frameno) const;

 private:
  struct CarTrack {
    int id;
    int lane_y;
    int speed;
    int length;
    int height;
    int phase;
    int color_jitter[3];
  };
  struct PedTrack {
    int id;
    float depth;
    int start_frame;
    int duration;
    int start_x;
    float speed;
    int color_jitter[3];
  };

  TrafficCamConfig config_;
  std::vector<CarTrack> cars_;
  std::vector<PedTrack> peds_;
  int cycle_frames_;  // car positions repeat with this period
};

// ---------------------------------------------------------------------
// Football
// ---------------------------------------------------------------------

/// Football clips: each video shows players (blue, numbered jerseys)
/// moving on a field; one tracked jersey number appears in every video.
struct FootballConfig {
  int width = 160;
  int height = 96;
  int num_videos = 15;
  int frames_per_video = 48;
  int players_per_video = 6;
  /// The jersey number whose trajectory q3 tracks.
  int tracked_jersey = 7;
  uint64_t seed = 0xF00B11ull;

  /// Paper cardinality: 15 videos, 15,244 frames total (~1016 each).
  static FootballConfig PaperScale() {
    FootballConfig c;
    c.frames_per_video = 1016;
    return c;
  }
};

class FootballSim {
 public:
  explicit FootballSim(FootballConfig config);

  const FootballConfig& config() const { return config_; }
  int num_videos() const { return config_.num_videos; }
  int frames_per_video() const { return config_.frames_per_video; }

  FrameTruth TruthAt(int video, int frameno) const;
  Image FrameAt(int video, int frameno) const;

  /// q3 truth: the tracked player's bbox in every frame of `video`.
  std::vector<nn::BBox> TrackedTrajectory(int video) const;

 private:
  struct PlayerTrack {
    int jersey;
    float x0, y0;   // start position
    float vx, vy;   // velocity px/frame
    int w, h;
    int color_jitter[3];
  };

  const PlayerTrack& PlayerAt(int video, int slot) const;

  FootballConfig config_;
  std::vector<std::vector<PlayerTrack>> players_;  // [video][slot]
};

// ---------------------------------------------------------------------
// PC (personal computer image corpus)
// ---------------------------------------------------------------------

/// Mixed-size image corpus with known near-duplicate pairs (q1) and
/// embedded digit-string text blocks (q5).
struct PcConfig {
  int num_images = 779;
  /// The last `num_duplicates` images are noisy re-renders of the first
  /// `num_duplicates` (ground truth for q1).
  int num_duplicates = 40;
  /// Images [0, num_text_images) carry a text block with a digit string.
  int num_text_images = 60;
  int min_width = 48, max_width = 144;
  int min_height = 36, max_height = 108;
  /// The q5 target string; embedded in exactly one image.
  std::string target_string = "42137";
  uint64_t seed = 0x9CC0DEull;

  static PcConfig PaperScale() { return PcConfig(); }  // already 779
};

class PcSim {
 public:
  explicit PcSim(PcConfig config);

  const PcConfig& config() const { return config_; }
  int num_images() const { return config_.num_images; }

  Image ImageAt(int index) const;

  /// Index of the base image this one near-duplicates, or -1.
  int DuplicateOf(int index) const;
  /// All ground-truth duplicate pairs (base, dup), base < dup.
  std::vector<std::pair<int, int>> DuplicatePairs() const;

  /// The digit string embedded in image `index` ("" if none).
  std::string TextAt(int index) const;
  /// Index of the image carrying the q5 target string.
  int TargetImage() const { return target_image_; }

 private:
  struct Content {
    int width, height;
    struct Block {
      int x0, y0, x1, y1;
      uint8_t rgb[3];
    };
    std::vector<Block> blocks;
    std::string text;  // "" = no text block
    nn::BBox text_box;
  };

  Content ContentFor(int base_index) const;

  PcConfig config_;
  int target_image_ = 0;
};

}  // namespace sim
}  // namespace deeplens
