// etl_ingest: the write path, which dominates the paper's costs (Fig. 5).
//
// One client ingests 16-frame TrafficCam clips and runs the paper's ETL
// on each as it arrives: store the clip (kSegmented), decode it back,
// run the detector, featurize with colour histograms, estimate depth on
// person patches, register the detections as a per-clip view and persist
// it (columnar, the library's own flush policy). Clips round-robin over
// eight seeded camera feeds so every stretch of the run samples every
// phase of the simulated traffic light, and each frame is processed once,
// so detector memoization cannot turn the run into cache hits.
//
// The work is fixed at 448 clips (7,168 frames; about 14 s at 32
// clips/s), cut short only if the run's duration ends first, so peak
// memory, which grows with the views registered, does not grow when
// ingest gets faster.
//
// There is one client because Database::RegisterView writes its view map
// without a lock.
#include <filesystem>
#include <map>

#include "etl/materialize.h"
#include "harness.h"
#include "sim/accuracy.h"
#include "sim/datasets.h"

namespace deeplens {
namespace e2e {
namespace {

constexpr int kCameras = 8;
constexpr int kClipFrames = 16;
constexpr int kWarmupClips = 16;
constexpr int kMeasuredClips = 448;
constexpr int kClipsPerCamera = (kWarmupClips + kMeasuredClips) / kCameras;
// Every kOracleEvery-th clip is rerun in a cache-disabled database.
constexpr int kOracleEvery = 16;

ColorHistogramOptions Features() {
  ColorHistogramOptions options;  // as BenchmarkWorkload featurizes
  options.bins = 16;
  options.grid = 2;
  return options;
}

std::string CameraName(int camera) { return "cam" + std::to_string(camera); }

// Clip k of the stream: camera k % kCameras, that camera's clip k / kCameras.
std::string ClipName(int clip) {
  return CameraName(clip % kCameras) + "_clip" + std::to_string(clip / kCameras);
}

int FirstFrame(int clip) { return (clip / kCameras) * kClipFrames; }

// Model inputs and outputs of a detection row, without the ids and
// lineage that differ between databases.
bool SameDetection(const Patch& a, const Patch& b) {
  if (a.bbox().x0 != b.bbox().x0 || a.bbox().y0 != b.bbox().y0 ||
      a.bbox().x1 != b.bbox().x1 || a.bbox().y1 != b.bbox().y1) {
    return false;
  }
  if (a.pixels().bytes() != b.pixels().bytes()) return false;
  const Tensor& fa = a.features();
  const Tensor& fb = b.features();
  if (fa.size() != fb.size() ||
      !std::equal(fa.data(), fa.data() + fa.size(), fb.data())) {
    return false;
  }
  for (const char* key : {meta_keys::kLabel, meta_keys::kScore,
                          meta_keys::kFrameNo, meta_keys::kDataset,
                          meta_keys::kDepth}) {
    if (!(a.meta().Get(key) == b.meta().Get(key))) return false;
  }
  return true;
}

bool SameSerialized(const Patch& a, const Patch& b) {
  ByteBuffer ba, bb;
  a.SerializeInto(&ba);
  b.SerializeInto(&bb);
  return ba.data() == bb.data();
}

// The detection a stored row records.
nn::Detection DetectionOf(const Patch& p) {
  nn::Detection d;
  d.bbox = p.bbox();
  d.score = static_cast<float>(
      p.meta().Get(meta_keys::kScore).AsNumeric().ValueOr(0.0));
  const auto label = p.meta().Get(meta_keys::kLabel).AsString();
  for (int c = 0; c < nn::kNumClasses; ++c) {
    const auto cls = static_cast<nn::ObjectClass>(c);
    if (label.ok() && **label == nn::ObjectClassName(cls)) d.label = cls;
  }
  return d;
}

class EtlIngest : public Workload {
 public:
  explicit EtlIngest(uint64_t seed) {
    for (int c = 0; c < kCameras; ++c) {
      sim::TrafficCamConfig config;
      config.num_frames = kClipsPerCamera * kClipFrames;
      // The default scene density: 12 pedestrians per 600 frames.
      config.num_pedestrians = config.num_frames / 50;
      config.seed = SubSeed(seed, static_cast<uint64_t>(c));
      sims_.emplace_back(config);
    }
  }

  Status SetUp(const std::string& dir) override {
    dir_ = dir;
    DL_ASSIGN_OR_RETURN(db_, Database::Open(dir + "/db"));
    for (int clip = 0; clip < kWarmupClips; ++clip) {
      DL_RETURN_NOT_OK(ProcessClip(db_.get(), clip, Render(clip), nullptr));
    }
    processed_ = kWarmupClips;
    return Status::OK();
  }

  Status PrepareOracle() override {
    // The oracle reruns clips after the load, once it is known which
    // clips were processed.
    return Status::OK();
  }

  Status Measure(double seconds, bool trace, Report* report,
                 Measurement* m) override {
    ClientLog log(trace);
    m->before = CounterSnapshot::Take(db_.get());
    const uint64_t start = NowNanos();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    const int first = processed_;
    while (NowNanos() < deadline && processed_ - first < kMeasuredClips) {
      // Rendering stands in for the camera delivering the clip; it is
      // input generation, so it stays outside the request.
      std::vector<Image> frames = Render(processed_);
      const uint64_t t0 = NowNanos();
      Status st;
      {
        ScopedSpan request(&log.spans, "request");
        st = ProcessClip(db_.get(), processed_, std::move(frames), &log.spans);
      }
      log.Record(t0, NowNanos(), st);
      if (!st.ok()) break;  // later clips would reuse the failed clip's names
      ++processed_;
    }
    const uint64_t end = NowNanos();
    m->after = CounterSnapshot::Take(db_.get());
    m->cache_budget_bytes = db_->cache_config().budget_bytes;

    const uint64_t clips = static_cast<uint64_t>(processed_ - first);
    m->elapsed_s = static_cast<double>(end - start) / 1e9;
    m->clips = clips;
    m->frames = clips * kClipFrames;
    m->requests_per_s = static_cast<double>(clips) / m->elapsed_s;
    Collect(std::move(log), /*latencies=*/true, report, m);
    DL_RETURN_NOT_OK(Verify(report));
    DL_RETURN_NOT_OK(Score(m));
    return Status::OK();
  }

 private:
  std::vector<Image> Render(int clip) const {
    const sim::TrafficCamSim& sim = sims_[clip % kCameras];
    std::vector<Image> frames;
    for (int f = 0; f < kClipFrames; ++f) {
      frames.push_back(sim.FrameAt(FirstFrame(clip) + f));
    }
    return frames;
  }

  // The per-clip pipeline, one span per stage.
  static Status ProcessClip(Database* db, int clip, std::vector<Image> frames,
                            SpanLog* spans) {
    const std::string name = ClipName(clip);
    const int first = FirstFrame(clip);
    {
      ScopedSpan span(spans, "storage.ingest");
      VideoStoreOptions layout;
      layout.format = VideoFormat::kSegmented;
      layout.clip_frames = kClipFrames;
      DL_RETURN_NOT_OK(
          db->IngestVideo(name, FramesFromVector(std::move(frames), first),
                          layout));
    }
    std::vector<Image> decoded;
    {
      ScopedSpan span(spans, "etl.decode");
      DL_ASSIGN_OR_RETURN(auto reader, db->LoadVideo(name));
      DL_RETURN_NOT_OK(reader->ReadRange(
          0, kClipFrames - 1, [&decoded](int, const Image& frame) {
            decoded.push_back(frame);
            return true;
          }));
    }
    PatchCollection rows;
    {
      ScopedSpan span(spans, "nn.detect");
      auto detections = MakeObjectDetectorGenerator(
          FramesFromVector(std::move(decoded), first), db->detector(),
          db->MakeEtlOptions(CameraName(clip % kCameras)));
      DL_ASSIGN_OR_RETURN(rows, CollectPatches(detections.get()));
    }
    {
      ScopedSpan span(spans, "etl.featurize");
      auto featurized = MakeColorHistogramTransformer(
          MakeVectorSource(std::move(rows)), Features());
      DL_ASSIGN_OR_RETURN(rows, CollectPatches(featurized.get()));
    }
    {
      ScopedSpan span(spans, "etl.depth");
      InferenceCache* cache = db->inference_cache();
      nn::Device* cpu = nn::GetDevice(nn::DeviceKind::kCpuVector);
      for (Patch& p : rows) {
        const auto label = p.meta().Get(meta_keys::kLabel).AsString();
        if (!label.ok() || **label != "person" || !p.has_pixels()) continue;
        DL_ASSIGN_OR_RETURN(
            const double depth,
            CachedDepth(*db->depth_model(), p.pixels(), p.bbox(),
                        sim::TrafficCamConfig().height,
                        CacheFingerprint(p, cache), cpu, cache));
        p.mutable_meta().Set(meta_keys::kDepth, depth);
      }
    }
    {
      ScopedSpan span(spans, "etl.register");
      DL_RETURN_NOT_OK(db->RegisterView(name, std::move(rows)));
    }
    ScopedSpan span(spans, "storage.persist");
    return db->PersistView(name);
  }

  std::string ViewFile(int clip) const {
    return dir_ + "/db/views/" + ClipName(clip);
  }

  // Reruns every kOracleEvery-th clip in a separate cache-disabled
  // database and checks both databases agree, and that every persisted
  // view reads back exactly as registered.
  Status Verify(Report* report) {
    DL_ASSIGN_OR_RETURN(auto oracle, Database::Open(dir_ + "/oracle"));
    CacheConfig off;
    off.budget_bytes = 0;
    oracle->ConfigureCaches(off);
    for (int clip = 0; clip < processed_; ++clip) {
      DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView(ClipName(clip)));
      DL_ASSIGN_OR_RETURN(auto stored, MaterializedView::Open(ViewFile(clip)));
      DL_ASSIGN_OR_RETURN(PatchCollection reread, stored->LoadAll());
      bool same = reread.size() == view->patches.size();
      for (size_t i = 0; same && i < reread.size(); ++i) {
        same = SameSerialized(reread[i], view->patches[i]);
      }
      if (!same) report->Problem("persisted view " + ClipName(clip) +
                                 " does not read back as registered");
      if (clip % kOracleEvery != 0) continue;
      DL_RETURN_NOT_OK(ProcessClip(oracle.get(), clip, Render(clip), nullptr));
      DL_ASSIGN_OR_RETURN(ViewCache * expect, oracle->GetView(ClipName(clip)));
      same = expect->patches.size() == view->patches.size();
      for (size_t i = 0; same && i < view->patches.size(); ++i) {
        same = SameDetection(view->patches[i], expect->patches[i]);
      }
      if (!same) report->Problem("clip " + ClipName(clip) +
                                 " differs from the cache-disabled rerun");
    }
    return Status::OK();
  }

  // Detection F1 of every processed clip against the simulation's truth,
  // plus the bytes each stored row costs.
  Status Score(Measurement* m) {
    sim::PrecisionRecall pr;
    for (int clip = 0; clip < processed_; ++clip) {
      DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView(ClipName(clip)));
      std::map<int64_t, std::vector<nn::Detection>> by_frame;
      for (int f = 0; f < kClipFrames; ++f) by_frame[FirstFrame(clip) + f];
      for (const Patch& p : view->patches) {
        by_frame[p.meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1)]
            .push_back(DetectionOf(p));
      }
      const sim::TrafficCamSim& sim = sims_[clip % kCameras];
      for (const auto& [frame, detections] : by_frame) {
        const sim::FrameTruth truth = sim.TruthAt(static_cast<int>(frame));
        for (int c = 0; c < nn::kNumClasses; ++c) {
          pr.Merge(sim::MatchDetections(detections, truth.objects,
                                        static_cast<nn::ObjectClass>(c)));
        }
      }
      m->stored_rows += view->patches.size();
      m->stored_bytes += std::filesystem::file_size(ViewFile(clip));
    }
    m->accuracy_f1 = pr.f1();
    return Status::OK();
  }

  std::vector<sim::TrafficCamSim> sims_;
  std::string dir_;
  std::unique_ptr<Database> db_;
  int processed_ = 0;  // clips of the stream done so far
};

}  // namespace

std::unique_ptr<Workload> MakeEtlIngest(uint64_t seed) {
  return std::make_unique<EtlIngest>(seed);
}

}  // namespace e2e
}  // namespace deeplens
