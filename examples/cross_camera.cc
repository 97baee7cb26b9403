// Cross-camera car matching (the paper's Example 2, §2.2.2): given two
// CCTV feeds, find the cars that appear in both. Detections from each
// camera are featurized, then matched with the on-the-fly Ball-Tree
// similarity join — with a nested-loop run for comparison, mirroring the
// planner's choice.
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/clock.h"
#include "core/database.h"
#include "core/planner.h"
#include "sim/datasets.h"

using namespace deeplens;  // NOLINT — example brevity

namespace {

PatchCollection DetectCars(Database* db, const std::string& name,
                           const sim::TrafficCamSim& camera) {
  std::vector<Image> frames;
  for (int f = 0; f < camera.num_frames(); ++f) {
    frames.push_back(camera.FrameAt(f));
  }
  auto detections = MakeObjectDetectorGenerator(
      FramesFromVector(std::move(frames)), db->detector(),
      db->MakeEtlOptions(name));
  ColorHistogramOptions features;
  features.bins = 16;
  features.grid = 2;
  auto featurized =
      MakeColorHistogramTransformer(std::move(detections), features);
  auto filtered =
      MakeFilter(std::move(featurized), Eq(Attr(meta_keys::kLabel),
                                           Lit("car")));
  auto cars = CollectPatches(filtered.get());
  DL_CHECK_OK(cars.status());
  return std::move(cars).value();
}

}  // namespace

int main() {
  const std::string root =
      (std::filesystem::temp_directory_path() / "deeplens_crosscam")
          .string();
  std::filesystem::remove_all(root);
  auto db = Database::Open(root);
  DL_CHECK_OK(db.status());

  // Two cameras with different private traffic but two shared cars
  // (vehicles that drive past both).
  sim::TrafficCamConfig cam1, cam2;
  cam1.num_frames = cam2.num_frames = 120;
  cam1.seed = 1001;
  cam2.seed = 2002;
  cam1.shared_car_ids = {7801, 7802};
  cam2.shared_car_ids = {7801, 7802};
  sim::TrafficCamSim camera1(cam1), camera2(cam2);

  PatchCollection cars1 = DetectCars(db->get(), "cam1", camera1);
  PatchCollection cars2 = DetectCars(db->get(), "cam2", camera2);
  std::printf("camera 1: %zu car patches; camera 2: %zu car patches\n",
              cars1.size(), cars2.size());

  // Ask the planner which join strategy fits these relation sizes at the
  // pool's actual width (parallel build + probe discount the ball-tree).
  const auto strategy = Planner::ChooseSimilarityJoin(
      cars1.size(), cars2.size(), 60, /*gpu_available=*/false,
      ResolveMorselWorkers({}));
  std::printf("planner suggests: %s join\n", SimJoinStrategyName(strategy));

  // On-the-fly Ball-Tree similarity join (paper §5).
  SimilarityJoinOptions options;
  options.max_distance = 0.25f;
  Stopwatch bt_timer;
  JoinStats stats;
  auto matches =
      BallTreeSimilarityJoin(cars1, cars2, options, nullptr, &stats);
  DL_CHECK_OK(matches.status());
  const double bt_ms = bt_timer.ElapsedMillis();

  // Baseline: nested loop with the same predicate.
  Stopwatch nl_timer;
  auto baseline = NestedLoopJoin(
      cars1, cars2,
      Le(FeatureDistance(0, 1), Lit(static_cast<double>(options.max_distance))));
  DL_CHECK_OK(baseline.status());
  const double nl_ms = nl_timer.ElapsedMillis();

  std::printf("ball-tree join: %zu matched pairs in %.1f ms "
              "(index build %.1f ms included)\n",
              matches->size(), bt_ms, stats.index_build_millis);
  std::printf("nested loop:    %zu matched pairs in %.1f ms (%.1fx slower)\n",
              baseline->size(), nl_ms, nl_ms / std::max(0.01, bt_ms));

  // Group matched pairs by camera-1 patch and report distinct vehicles
  // seen by both cameras (the ground truth is the 2 shared cars).
  std::set<std::pair<int, int>> matched_truth;
  for (const PatchTuple& pair : *matches) {
    const auto truth_of = [](const sim::TrafficCamSim& cam,
                             const Patch& p) {
      const int64_t frameno =
          p.meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1);
      int best = -1;
      float best_iou = 0.2f;
      for (const auto& o : cam.TruthAt(static_cast<int>(frameno)).objects) {
        const float iou = p.bbox().Iou(o.bbox);
        if (iou > best_iou) {
          best_iou = iou;
          best = o.object_id;
        }
      }
      return best;
    };
    const int id1 = truth_of(camera1, pair[0]);
    const int id2 = truth_of(camera2, pair[1]);
    if (id1 >= 0 && id2 >= 0) matched_truth.insert({id1, id2});
  }
  int correct = 0;
  for (const auto& [a, b] : matched_truth) {
    if (a == b) ++correct;
  }
  std::printf("distinct identity pairs matched: %zu (%d correct "
              "cross-camera identities; ground truth has 2 shared cars)\n",
              matched_truth.size(), correct);

  std::filesystem::remove_all(root);
  return 0;
}
