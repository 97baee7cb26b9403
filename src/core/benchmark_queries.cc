#include "core/benchmark_queries.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_map>

#include "common/clock.h"
#include "common/string_util.h"
#include "core/planner.h"

namespace deeplens {
namespace bench {

namespace {

constexpr const char* kTrafficName = "traffic";
constexpr const char* kFootballName = "football";
constexpr const char* kPcName = "pc";

// Intra-cluster pair enumeration for dedup-quality scoring.
void ClusterPairs(const std::vector<uint32_t>& cluster_of,
                  const std::function<bool(size_t)>& keep_endpoint,
                  const std::function<bool(size_t, size_t)>& keep_pair,
                  std::vector<std::pair<size_t, size_t>>* out) {
  std::unordered_map<uint32_t, std::vector<size_t>> members;
  for (size_t i = 0; i < cluster_of.size(); ++i) {
    if (keep_endpoint(i)) members[cluster_of[i]].push_back(i);
  }
  for (const auto& [cluster, idxs] : members) {
    (void)cluster;
    for (size_t a = 0; a < idxs.size(); ++a) {
      for (size_t b = a + 1; b < idxs.size(); ++b) {
        if (keep_pair(idxs[a], idxs[b])) {
          out->emplace_back(idxs[a], idxs[b]);
        }
      }
    }
  }
}

}  // namespace

Result<std::unique_ptr<BenchmarkWorkload>> BenchmarkWorkload::Create(
    const std::string& root, WorkloadConfig config) {
  DL_ASSIGN_OR_RETURN(auto db, Database::Open(root));
  return std::unique_ptr<BenchmarkWorkload>(
      new BenchmarkWorkload(std::move(db), config));
}

Status BenchmarkWorkload::RunEtl(nn::Device* device, EtlTimings* timings) {
  EtlTimings local;

  // --- TrafficCam: detector → histogram features → depth on persons ----
  {
    Stopwatch timer;
    auto counter = std::make_shared<int>(0);
    const sim::TrafficCamSim* sim = &traffic_;
    FrameIterator frames =
        [sim, counter]() -> Result<std::optional<std::pair<int, Image>>> {
      if (*counter >= sim->num_frames()) {
        return std::optional<std::pair<int, Image>>();
      }
      const int f = (*counter)++;
      return std::optional<std::pair<int, Image>>(
          std::make_pair(f, sim->FrameAt(f)));
    };
    auto gen = MakeObjectDetectorGenerator(
        std::move(frames), db_->detector(),
        db_->MakeEtlOptions(kTrafficName, device));
    auto featurized =
        MakeColorHistogramTransformer(std::move(gen), config_.features);
    // Depth annotations only make sense for persons; other labels pass
    // through untouched.
    const nn::TinyDepth* depth_model = db_->depth_model();
    const int frame_h = traffic_.config().height;
    // Per-patch depth inference is a small kernel: keep it off the GPU
    // (per-tuple launches would dominate — paper §7.4.2).
    nn::Device* dev = device != nullptr
                          ? device
                          : nn::GetDevice(nn::DeviceKind::kCpuVector);
    if (dev->kind() == nn::DeviceKind::kGpuSim) {
      dev = nn::GetDevice(nn::DeviceKind::kCpuVector);
    }
    InferenceCache* cache = db_->inference_cache();
    auto with_depth = MakeMap(
        std::move(featurized),
        [depth_model, frame_h, dev,
         cache](PatchTuple tuple) -> Result<PatchTuple> {
          for (Patch& p : tuple) {
            auto label = p.meta().Get(meta_keys::kLabel).AsString();
            if (!label.ok() || **label != "person" || !p.has_pixels()) {
              continue;
            }
            DL_ASSIGN_OR_RETURN(double d,
                                CachedDepth(*depth_model, p.pixels(),
                                            p.bbox(), frame_h,
                                            CacheFingerprint(p, cache),
                                            dev, cache));
            p.mutable_meta().Set(meta_keys::kDepth, d);
          }
          return tuple;
        });
    DL_RETURN_NOT_OK(db_->RegisterView("traffic_dets", with_depth.get()));
    local.traffic_ms = timer.ElapsedMillis();
  }

  // --- Football: player detections + jersey OCR -------------------------
  {
    Stopwatch timer;
    const sim::FootballSim* sim = &football_;
    auto make_frames = [sim]() -> FrameIterator {
      auto video = std::make_shared<int>(0);
      auto frame = std::make_shared<int>(0);
      return [sim, video,
              frame]() -> Result<std::optional<std::pair<int, Image>>> {
        if (*video >= sim->num_videos()) {
          return std::optional<std::pair<int, Image>>();
        }
        const int v = *video;
        const int f = *frame;
        if (++*frame >= sim->frames_per_video()) {
          *frame = 0;
          ++*video;
        }
        return std::optional<std::pair<int, Image>>(std::make_pair(
            static_cast<int>(BenchmarkWorkload::FootballFrameNo(v, f)),
            sim->FrameAt(v, f)));
      };
    };
    auto players = MakeObjectDetectorGenerator(
        make_frames(), db_->detector(),
        db_->MakeEtlOptions(kFootballName, device));
    auto featurized =
        MakeColorHistogramTransformer(std::move(players), config_.features);
    DL_RETURN_NOT_OK(db_->RegisterView("football_players",
                                       featurized.get()));
    // Jersey OCR runs per player patch (the paper's "OCR output that
    // identifies a number if one is visible"). Legible numbers become
    // *child* patches whose lineage parent is the player detection, so
    // q3's backtrace walks jersey → player → frame.
    DL_ASSIGN_OR_RETURN(ViewCache * players_view,
                        db_->GetView("football_players"));
    nn::Device* dev = device != nullptr
                          ? device
                          : nn::GetDevice(nn::DeviceKind::kCpuVector);
    if (dev->kind() == nn::DeviceKind::kGpuSim) {
      dev = nn::GetDevice(nn::DeviceKind::kCpuVector);  // per-tuple OCR
    }
    PatchCollection jerseys;
    for (const Patch& player : players_view->patches) {
      if (!player.has_pixels()) continue;
      DL_ASSIGN_OR_RETURN(
          std::string text,
          CachedOcrText(*db_->ocr(), player.pixels(),
                        CacheFingerprint(player, db_->inference_cache()),
                        dev, db_->inference_cache()));
      if (text.empty()) continue;
      Patch jersey;
      jersey.set_id(db_->id_counter()->fetch_add(1));
      jersey.set_ref(ImgRef{kFootballName,
                            player.ref().frameno, player.id()});
      jersey.set_bbox(player.bbox());
      MetaDict& meta = jersey.mutable_meta();
      meta.Set(meta_keys::kText, text);
      meta.Set(meta_keys::kFrameNo,
               player.meta().Get(meta_keys::kFrameNo));
      meta.Set(meta_keys::kDataset, std::string(kFootballName));
      meta.Set(meta_keys::kPatchId, static_cast<int64_t>(jersey.id()));
      db_->lineage()->Record(jersey);
      jerseys.push_back(std::move(jersey));
    }
    DL_RETURN_NOT_OK(db_->RegisterView("football_jerseys",
                                       std::move(jerseys)));
    local.football_ms = timer.ElapsedMillis();
  }

  // --- PC: whole images (featurized) + OCR text --------------------------
  {
    Stopwatch timer;
    const sim::PcSim* sim = &pc_;
    auto make_frames = [sim]() -> FrameIterator {
      auto counter = std::make_shared<int>(0);
      return [sim,
              counter]() -> Result<std::optional<std::pair<int, Image>>> {
        if (*counter >= sim->num_images()) {
          return std::optional<std::pair<int, Image>>();
        }
        const int i = (*counter)++;
        return std::optional<std::pair<int, Image>>(
            std::make_pair(i, sim->ImageAt(i)));
      };
    };
    auto whole = MakeWholeImageGenerator(
        make_frames(), db_->MakeEtlOptions(kPcName, device));
    auto featurized =
        MakeColorHistogramTransformer(std::move(whole), config_.features);
    DL_RETURN_NOT_OK(db_->RegisterView("pc_images", featurized.get()));
    auto text = MakeOcrGenerator(make_frames(), db_->detector(), db_->ocr(),
                                 db_->MakeEtlOptions(kPcName, device));
    DL_RETURN_NOT_OK(db_->RegisterView("pc_text", text.get()));
    local.pc_ms = timer.ElapsedMillis();
  }

  if (timings != nullptr) *timings = local;
  return Status::OK();
}

Result<double> BenchmarkWorkload::BuildOptimizedIndexes() {
  double total = 0;
  auto build = [&](const std::string& view, IndexKind kind,
                   const std::string& key) -> Status {
    DL_ASSIGN_OR_RETURN(IndexStats stats, db_->BuildIndex(view, kind, key));
    total += stats.build_millis;
    return Status::OK();
  };
  DL_RETURN_NOT_OK(build("traffic_dets", IndexKind::kHash,
                         meta_keys::kLabel));
  DL_RETURN_NOT_OK(build("traffic_dets", IndexKind::kBPlusTree,
                         meta_keys::kFrameNo));
  DL_RETURN_NOT_OK(build("traffic_dets", IndexKind::kBallTree, ""));
  DL_RETURN_NOT_OK(build("pc_images", IndexKind::kBallTree, ""));
  DL_RETURN_NOT_OK(build("pc_text", IndexKind::kHash, meta_keys::kText));
  DL_RETURN_NOT_OK(build("football_players", IndexKind::kHash,
                         meta_keys::kPatchId));
  DL_RETURN_NOT_OK(build("football_players", IndexKind::kBPlusTree,
                         meta_keys::kFrameNo));
  DL_RETURN_NOT_OK(build("football_jerseys", IndexKind::kHash,
                         meta_keys::kText));
  return total;
}

Status BenchmarkWorkload::DropAllIndexes() {
  for (const char* view : {"traffic_dets", "pc_images", "pc_text",
                           "football_players", "football_jerseys"}) {
    if (db_->HasView(view)) {
      DL_RETURN_NOT_OK(db_->DropIndexes(view));
    }
  }
  return Status::OK();
}

int BenchmarkWorkload::TruthObjectIdFor(const Patch& patch) const {
  auto frameno = patch.meta().Get(meta_keys::kFrameNo).AsInt();
  if (!frameno.ok()) return -1;
  const sim::FrameTruth truth =
      traffic_.TruthAt(static_cast<int>(frameno.value()));
  float best_iou = 0.2f;  // minimum overlap to accept
  int best = -1;
  for (const sim::SceneObject& o : truth.objects) {
    const float iou = patch.bbox().Iou(o.bbox);
    if (iou > best_iou) {
      best_iou = iou;
      best = o.object_id;
    }
  }
  return best;
}

// --- q1: near-duplicates in PC ------------------------------------------

Result<QueryRun> BenchmarkWorkload::RunQ1(bool optimized) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView("pc_images"));
  QueryRun run;
  Stopwatch timer;

  // Canonical pair order: earlier image first.
  ExprPtr order = Lt(Attr(0, meta_keys::kFrameNo),
                     Attr(1, meta_keys::kFrameNo));
  std::vector<PatchTuple> pairs;
  if (optimized) {
    SimilarityJoinOptions options;
    options.max_distance = config_.q1_max_distance;
    JoinStats stats;
    DL_ASSIGN_OR_RETURN(pairs,
                        BallTreeSimilarityJoin(view->patches, view->patches,
                                               options, order, &stats));
    run.plan = StringFormat(
        "on-the-fly ball-tree similarity self-join (%llu distance evals)",
        static_cast<unsigned long long>(stats.pairs_examined));
  } else {
    ExprPtr pred =
        And(Le(FeatureDistance(0, 1),
               Lit(static_cast<double>(config_.q1_max_distance))),
            order);
    JoinStats stats;
    DL_ASSIGN_OR_RETURN(
        pairs, NestedLoopJoin(view->patches, view->patches, pred, &stats));
    run.plan = StringFormat(
        "nested-loop θ-join (%llu pairs examined)",
        static_cast<unsigned long long>(stats.pairs_examined));
  }
  run.millis = timer.ElapsedMillis();
  run.result_count = pairs.size();

  // Accuracy against the known duplicate pairs.
  std::vector<std::pair<int, int>> found;
  for (const PatchTuple& t : pairs) {
    found.emplace_back(
        static_cast<int>(t[0].meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1)),
        static_cast<int>(t[1].meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1)));
  }
  const sim::PrecisionRecall pr =
      sim::ScorePairs(found, pc_.DuplicatePairs());
  run.precision = pr.precision();
  run.recall = pr.recall();
  return run;
}

// --- q2: frames with at least one vehicle ---------------------------------

Result<QueryRun> BenchmarkWorkload::RunQ2(bool optimized) {
  (void)optimized;  // physical design is whatever is currently built
  QueryRun run;
  Stopwatch timer;
  Query query(db_.get(), "traffic_dets");
  query.Where(Eq(Attr(meta_keys::kLabel), Lit("car")));
  DL_ASSIGN_OR_RETURN(PlanExplanation plan, query.Explain());
  DL_ASSIGN_OR_RETURN(uint64_t frames,
                      query.CountDistinct(meta_keys::kFrameNo));
  run.millis = timer.ElapsedMillis();
  run.result_count = frames;
  run.plan = plan.description;

  const int truth = traffic_.FramesWithVehicles();
  run.recall = truth > 0 ? std::min(
                               1.0, static_cast<double>(frames) / truth)
                         : 1.0;
  run.precision =
      frames > 0
          ? std::min(1.0, static_cast<double>(truth) /
                              static_cast<double>(frames))
          : 1.0;
  return run;
}

// --- q3: track one player's trajectory ------------------------------------

Result<QueryRun> BenchmarkWorkload::RunQ3(bool optimized) {
  DL_ASSIGN_OR_RETURN(ViewCache * jerseys, db_->GetView("football_jerseys"));
  DL_ASSIGN_OR_RETURN(ViewCache * players, db_->GetView("football_players"));
  const std::string tracked =
      std::to_string(football_.config().tracked_jersey);

  QueryRun run;
  Stopwatch timer;
  std::vector<std::pair<int64_t, nn::BBox>> trajectory;

  // The jersey observations for the tracked number.
  PatchCollection hits;
  for (const Patch& p : jerseys->patches) {
    auto text = p.meta().Get(meta_keys::kText).AsString();
    if (text.ok() && **text == tracked) hits.push_back(p);
  }

  if (optimized) {
    // Lineage-backed backtrace: jersey patch → source frame → patches of
    // that frame (lineage frame index) → player boxes containing it.
    const HashIndex* by_pid = nullptr;
    auto it = players->hash_indexes.find(meta_keys::kPatchId);
    if (it == players->hash_indexes.end()) {
      return Status::InvalidArgument(
          "optimized q3 needs the pid hash index (BuildOptimizedIndexes)");
    }
    by_pid = &it->second;
    for (const Patch& jersey : hits) {
      DL_ASSIGN_OR_RETURN(ImgRef root, db_->lineage()->Backtrace(jersey.id()));
      std::vector<PatchId> frame_patches;
      db_->lineage()->PatchesForFrame(root.dataset, root.frameno,
                                      &frame_patches);
      for (PatchId pid : frame_patches) {
        std::vector<RowId> rows;
        by_pid->Lookup(
            Slice(MetaValue(static_cast<int64_t>(pid)).ToIndexKey()),
            &rows);
        for (RowId r : rows) {
          const Patch& player = players->patches[static_cast<size_t>(r)];
          auto label = player.meta().Get(meta_keys::kLabel).AsString();
          if (!label.ok() || **label != "player") continue;
          if (player.bbox().Iou(jersey.bbox()) > 0.0f ||
              player.bbox().ContainsPoint(jersey.bbox().CenterX(),
                                          jersey.bbox().CenterY())) {
            trajectory.emplace_back(root.frameno, player.bbox());
          }
        }
      }
    }
    run.plan = "lineage backtrace + frame index + pid hash lookup";
  } else {
    // Baseline: rescan the full detection relation per jersey hit.
    for (const Patch& jersey : hits) {
      const int64_t frameno =
          jersey.meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1);
      for (const Patch& player : players->patches) {
        if (player.meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-2) !=
            frameno) {
          continue;
        }
        auto label = player.meta().Get(meta_keys::kLabel).AsString();
        if (!label.ok() || **label != "player") continue;
        if (player.bbox().Iou(jersey.bbox()) > 0.0f ||
            player.bbox().ContainsPoint(jersey.bbox().CenterX(),
                                        jersey.bbox().CenterY())) {
          trajectory.emplace_back(frameno, player.bbox());
        }
      }
    }
    run.plan = "full rescan of detections per OCR hit";
  }
  std::sort(trajectory.begin(), trajectory.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  run.millis = timer.ElapsedMillis();
  run.result_count = trajectory.size();

  // Recall vs ground truth: frames where the tracked player exists.
  uint64_t truth_frames = 0;
  for (int v = 0; v < football_.num_videos(); ++v) {
    truth_frames += football_.TrackedTrajectory(v).size();
  }
  std::set<int64_t> covered;
  for (const auto& [frameno, box] : trajectory) covered.insert(frameno);
  run.recall = truth_frames > 0
                   ? static_cast<double>(covered.size()) /
                         static_cast<double>(truth_frames)
                   : 1.0;
  run.precision = -1;
  return run;
}

// --- q4: count distinct pedestrians ----------------------------------------

Result<QueryRun> BenchmarkWorkload::RunQ4(bool optimized,
                                          nn::Device* match_device) {
  QueryRun run;
  Stopwatch timer;
  Query query(db_.get(), "traffic_dets");
  query.Where(Eq(Attr(meta_keys::kLabel), Lit("person")));
  query.Where(Ge(Attr(meta_keys::kScore), Lit(config_.q4_min_score)));
  DL_ASSIGN_OR_RETURN(PlanExplanation plan, query.Explain());
  DL_ASSIGN_OR_RETURN(PatchCollection persons, query.Execute());

  DedupOptions options;
  options.max_distance = config_.q4_max_distance;
  options.strategy = optimized ? DedupOptions::Strategy::kBallTree
                               : DedupOptions::Strategy::kAllPairs;
  options.device = match_device;
  DL_ASSIGN_OR_RETURN(DedupResult dedup, SimilarityDedup(persons, options));
  run.millis = timer.ElapsedMillis();
  run.result_count = dedup.num_clusters;
  run.plan = std::string(plan.description) + "; dedup=" +
             (optimized ? "ball-tree" : "all-pairs");

  const int truth = traffic_.DistinctPedestrians();
  if (truth > 0) {
    run.recall = std::min(
        1.0, static_cast<double>(dedup.num_clusters) / truth);
    run.precision = dedup.num_clusters > 0
                        ? std::min(1.0, static_cast<double>(truth) /
                                            static_cast<double>(
                                                dedup.num_clusters))
                        : 1.0;
  }
  return run;
}

// --- q5: string lookup in PC ------------------------------------------------

Result<QueryRun> BenchmarkWorkload::RunQ5(bool optimized) {
  (void)optimized;
  QueryRun run;
  Stopwatch timer;
  Query query(db_.get(), "pc_text");
  query.Where(Eq(Attr(meta_keys::kText), Lit(pc_.config().target_string)));
  DL_ASSIGN_OR_RETURN(PlanExplanation plan, query.Explain());
  DL_ASSIGN_OR_RETURN(auto first, query.FirstBy(meta_keys::kFrameNo));
  run.millis = timer.ElapsedMillis();
  run.result_count = first.has_value() ? 1 : 0;
  run.plan = plan.description;
  if (first.has_value()) {
    const int64_t image =
        first->meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1);
    run.recall = image == pc_.TargetImage() ? 1.0 : 0.0;
    run.precision = run.recall;
  } else {
    run.recall = 0.0;
    run.precision = 1.0;
  }
  return run;
}

// --- q6: pedestrian pairs (p1 behind p2) -------------------------------------

Result<QueryRun> BenchmarkWorkload::RunQ6(bool optimized) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView("traffic_dets"));
  QueryRun run;
  Stopwatch timer;

  // Common predicates over (p1, p2) tuples.
  ExprPtr persons = And(Eq(Attr(0, meta_keys::kLabel), Lit("person")),
                        Eq(Attr(1, meta_keys::kLabel), Lit("person")));
  ExprPtr behind = Gt(Attr(0, meta_keys::kDepth),
                      Add(Attr(1, meta_keys::kDepth),
                          Lit(config_.q6_depth_margin)));
  ExprPtr distinct =
      Ne(Attr(0, meta_keys::kPatchId), Attr(1, meta_keys::kPatchId));
  ExprPtr residual = And(And(persons, behind), distinct);

  std::vector<PatchTuple> pairs;
  JoinStats stats;
  if (optimized) {
    // Index equality join on frameno (same-frame pairs only), residual
    // depth/label predicate.
    DL_ASSIGN_OR_RETURN(pairs,
                        HashEqualityJoin(view->patches, view->patches,
                                         meta_keys::kFrameNo, residual,
                                         &stats));
    // Explain the join's partition fan-out and phase breakdown, same as
    // scan plans report their access path.
    run.plan =
        Planner::ExplainJoin(meta_keys::kFrameNo, residual, stats).description;
  } else {
    ExprPtr same_frame =
        Eq(Attr(0, meta_keys::kFrameNo), Attr(1, meta_keys::kFrameNo));
    DL_ASSIGN_OR_RETURN(pairs,
                        NestedLoopJoin(view->patches, view->patches,
                                       And(same_frame, residual), &stats));
    run.plan = "nested-loop θ-join over all detection pairs";
  }
  run.millis = timer.ElapsedMillis();
  run.result_count = pairs.size();

  // Accuracy: map each endpoint to its ground-truth pedestrian and check
  // the depth ordering truth per frame.
  std::set<std::tuple<int64_t, int, int>> found;
  for (const PatchTuple& t : pairs) {
    const int64_t frameno =
        t[0].meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1);
    const int a = TruthObjectIdFor(t[0]);
    const int b = TruthObjectIdFor(t[1]);
    if (a >= 0 && b >= 0 && a != b) found.insert({frameno, a, b});
  }
  std::set<std::tuple<int64_t, int, int>> truth;
  for (int f = 0; f < traffic_.num_frames(); ++f) {
    for (const auto& [behind_id, front_id] : traffic_.BehindPairsAt(f)) {
      truth.insert({f, behind_id, front_id});
    }
  }
  int tp = 0;
  for (const auto& p : found) {
    if (truth.count(p)) ++tp;
  }
  run.precision =
      found.empty() ? 1.0 : static_cast<double>(tp) / found.size();
  run.recall =
      truth.empty() ? 1.0 : static_cast<double>(tp) / truth.size();
  return run;
}

Result<QueryRun> BenchmarkWorkload::RunQuery(int q, bool optimized) {
  switch (q) {
    case 1:
      return RunQ1(optimized);
    case 2:
      return RunQ2(optimized);
    case 3:
      return RunQ3(optimized);
    case 4:
      return RunQ4(optimized);
    case 5:
      return RunQ5(optimized);
    case 6:
      return RunQ6(optimized);
    default:
      return Status::InvalidArgument("query number must be 1..6");
  }
}

// --- Table 1: q4 plan order ---------------------------------------------

Result<PlanAccuracy> BenchmarkWorkload::RunQ4PlanOrder(
    bool filter_first, nn::Device* match_device) {
  DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView("traffic_dets"));
  PlanAccuracy out;
  Stopwatch timer;

  auto passes_filter = [this](const Patch& p) {
    auto label = p.meta().Get(meta_keys::kLabel).AsString();
    const double score =
        p.meta().Get(meta_keys::kScore).AsNumeric().ValueOr(0.0);
    return label.ok() && **label == "person" &&
           score >= config_.q4_min_score;
  };

  PatchCollection filtered;
  if (filter_first) {
    for (const Patch& p : view->patches) {
      if (passes_filter(p)) filtered.push_back(p);
    }
  }
  const PatchCollection& input = filter_first ? filtered : view->patches;

  DedupOptions options;
  options.max_distance = config_.q4_max_distance;
  options.strategy = DedupOptions::Strategy::kAllPairs;
  options.device = match_device;
  DL_ASSIGN_OR_RETURN(DedupResult dedup, SimilarityDedup(input, options));
  // Found same-identity pairs under this plan. Match-first keeps pairs
  // whose endpoints clustered together even when one endpoint would have
  // been dropped by the filter — the accuracy effect of Table 1.
  std::vector<std::pair<size_t, size_t>> found_idx;
  if (filter_first) {
    ClusterPairs(
        dedup.cluster_of, [](size_t) { return true; },
        [](size_t, size_t) { return true; }, &found_idx);
  } else {
    ClusterPairs(
        dedup.cluster_of, [](size_t) { return true; },
        [&](size_t a, size_t b) {
          return passes_filter(input[a]) || passes_filter(input[b]);
        },
        &found_idx);
  }
  out.runtime_ms = timer.ElapsedMillis();

  // Ground truth: all pairs of person detections sharing an identity.
  // Work over the full view so both plans are judged against the same
  // truth set.
  std::vector<int> oid(view->patches.size(), -1);
  std::unordered_map<PatchId, size_t> pos_of;
  for (size_t i = 0; i < view->patches.size(); ++i) {
    oid[i] = TruthObjectIdFor(view->patches[i]);
    pos_of[view->patches[i].id()] = i;
  }
  std::set<std::pair<size_t, size_t>> truth;
  std::unordered_map<int, std::vector<size_t>> by_identity;
  for (size_t i = 0; i < view->patches.size(); ++i) {
    if (sim::TrafficCamSim::IsPedestrianId(oid[i])) {
      by_identity[oid[i]].push_back(i);
    }
  }
  for (const auto& [identity, idxs] : by_identity) {
    (void)identity;
    for (size_t a = 0; a < idxs.size(); ++a) {
      for (size_t b = a + 1; b < idxs.size(); ++b) {
        truth.insert({std::min(idxs[a], idxs[b]),
                      std::max(idxs[a], idxs[b])});
      }
    }
  }

  int tp = 0, fp = 0;
  for (auto [a, b] : found_idx) {
    // Translate plan-local indices to view positions via patch ids.
    const size_t va = pos_of[input[a].id()];
    const size_t vb = pos_of[input[b].id()];
    const auto key = std::make_pair(std::min(va, vb), std::max(va, vb));
    if (truth.count(key)) {
      ++tp;
    } else {
      ++fp;
    }
  }
  out.precision = (tp + fp) == 0 ? 1.0
                                 : static_cast<double>(tp) / (tp + fp);
  out.recall = truth.empty()
                   ? 1.0
                   : static_cast<double>(tp) /
                         static_cast<double>(truth.size());
  return out;
}

Result<double> BenchmarkWorkload::Q2AccuracyFromView(
    const std::string& view_name) {
  Query query(db_.get(), view_name);
  query.Where(Eq(Attr(meta_keys::kLabel), Lit("car")));
  DL_ASSIGN_OR_RETURN(uint64_t frames,
                      query.CountDistinct(meta_keys::kFrameNo));
  const int truth = traffic_.FramesWithVehicles();
  if (truth == 0) return 1.0;
  return 1.0 - sim::RelativeError(static_cast<double>(frames),
                                  static_cast<double>(truth));
}

}  // namespace bench
}  // namespace deeplens
